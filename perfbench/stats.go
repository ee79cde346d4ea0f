package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples collects one timing class (say, every cold /metrics request of
// a run) as float64 values in the class's reporting unit.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur records d in milliseconds.
func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

// percentile returns the p-th percentile (0 < p <= 100) of s by the
// nearest-rank rule, and how many samples lie strictly beyond it. A
// percentile is worth reporting only while at least ten samples lie
// beyond it; the count lets the caller say so. Empty input gives NaN.
func percentile(s []float64, p float64) (value float64, beyond int) {
	if len(s) == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	// The epsilon keeps float error from pushing an exact rank up by one
	// (99.9% of 1000 is 999, not 999.0000000000001).
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	value = sorted[rank-1]
	beyond = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > value })
	return value, beyond
}

// median returns the middle value of s, averaging the two middle values
// of an even-length input: the statistic reported across repeated set-ups
// within a run and across runs of one workload.
func median(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// sum adds up s.
func sum(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// mean returns the average of s; empty input gives NaN.
func mean(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return sum(s) / float64(len(s))
}

// checkName enforces the metric-name grammar: a leading letter or
// digit, then at most 63 more letters, digits, '_', '.' or '-'.
func checkName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("metric name %q: want 1 to 64 characters", name)
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum || i > 0 && (c == '_' || c == '.' || c == '-') {
			continue
		}
		return fmt.Errorf("metric name %q: bad character %q at %d", name, c, i)
	}
	return nil
}

// checkUnit enforces the unit grammar: 1 to 16 letters, digits, '_',
// '/', '%', '.' or '-'.
func checkUnit(unit string) error {
	if unit == "" || len(unit) > 16 {
		return fmt.Errorf("unit %q: want 1 to 16 characters", unit)
	}
	for _, c := range unit {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return fmt.Errorf("unit %q: bad character %q", unit, c)
		}
	}
	return nil
}
