package main

import (
	"math"
	"testing"
)

func TestPercentileBeyond(t *testing.T) {
	s := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	} {
		v, b := percentile(s, c.p)
		if v != c.value || b != c.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, b, c.value, c.beyond)
		}
	}
	// Ties at the percentile do not count as beyond it.
	v, b := percentile([]float64{1, 2, 2, 2, 3}, 60)
	if v != 2 || b != 1 {
		t.Errorf("tied p60 = %v (%d beyond), want 2 (1 beyond)", v, b)
	}
	if v, b := percentile(nil, 50); !math.IsNaN(v) || b != 0 {
		t.Errorf("empty p50 = %v (%d beyond), want NaN (0)", v, b)
	}
	if s[0] != 1000 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSumMean(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if got := sum(s); got != 10 {
		t.Errorf("sum(%v) = %v, want 10", s, got)
	}
	if got := mean(s); got != 2.5 {
		t.Errorf("mean(%v) = %v, want 2.5", s, got)
	}
	if sum(nil) != 0 || !math.IsNaN(mean(nil)) {
		t.Error("sum of nothing should be 0 and its mean NaN")
	}
}

func TestNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "fleet.step_ns_per_sample", "9lives", "a-b.c_d"} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q): %v", ok, err)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/no", long} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted a bad name", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "Msample/s"} {
		if err := checkUnit(ok); err != nil {
			t.Errorf("checkUnit(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "m s", "seconds_per_sample", "µs"} {
		if checkUnit(bad) == nil {
			t.Errorf("checkUnit(%q) accepted a bad unit", bad)
		}
	}
}

// Every metric the harness can print obeys the grammar.
func TestMetricTableNames(t *testing.T) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, m := range tab {
			if err := checkName(m.name); err != nil {
				t.Error(err)
			}
			if err := checkUnit(m.unit); err != nil {
				t.Error(err)
			}
			if seen[m.name] {
				t.Errorf("metric %q listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
}
