package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/simsetup"
	"repro/internal/source"
)

// The fleet mix every workload serves. Of n stations: two PowerSensor3
// rigs keep the paper's measurement chain (ADC model, firmware, USB
// protocol, host decoder) on the sample path; n/16 are slow software
// meters; n/16 are derived 1 kHz recalibrated views; n/8 carry a fault
// stage; the rest are 20 kHz synthetic stations. The composition is
// fixed; the seed decides which name gets which kind, and so how kinds
// spread over the fleet's shards, plus every station's simulation seed.
var (
	rigKinds   = []string{"rtx4000ada", "ssd"}
	slowMeters = []string{"nvml", "rapl", "rapl|ratelimit:100"}
	faultMenu  = []string{"dropout:0.05:20ms", "stuck:0.05:20ms", "spike:0.001:5", "skew:200", "jitter:5us"}
)

const derivedView = "synth|resample:1000|calib:0.98:0.25"

// fleetKinds returns the kindspec of each of n station positions.
func fleetKinds(n int, r *rng.Source) []string {
	kinds := make([]string, 0, n)
	kinds = append(kinds, rigKinds...)
	for j := 0; j < n/16; j++ {
		kinds = append(kinds, slowMeters[j%len(slowMeters)])
	}
	for j := 0; j < n/16; j++ {
		kinds = append(kinds, derivedView)
	}
	for j := 0; j < n/8; j++ {
		kinds = append(kinds, "synth|"+faultMenu[j%len(faultMenu)])
	}
	for len(kinds) < n {
		kinds = append(kinds, "synth")
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// buildSpec renders a simsetup fleet spec in one pass.
func buildSpec(names, kinds []string) string {
	var sb strings.Builder
	for i := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(names[i])
		sb.WriteByte('=')
		sb.WriteString(kinds[i])
	}
	return sb.String()
}

func stationName(i int) string { return fmt.Sprintf("st%05d", i) }

func isRig(kind string) bool {
	for _, k := range rigKinds {
		if kind == k {
			return true
		}
	}
	return false
}

func isSlowMeter(kind string) bool {
	for _, k := range slowMeters {
		if kind == k {
			return true
		}
	}
	return false
}

func isFaulted(kind string) bool {
	for _, f := range faultMenu {
		if strings.HasSuffix(kind, f) {
			return true
		}
	}
	return false
}

// leaf is one fleet daemon: a manager, its exporter served on a loopback
// listener, and the bookkeeping the harness needs to churn it and count
// what it ingested.
type leaf struct {
	name string
	seed uint64
	mgr  *fleet.Manager
	h    http.Handler
	url  string
	srv  *http.Server
	done chan struct{}

	kinds     map[string]string       // live station → kindspec
	base      map[string]fleet.Status // conservation baselines
	index     map[string]int          // initial station → simulation seed index
	size0     int
	fresh     int // churned-in stations so far
	churnDue  float64
	vnow      time.Duration // virtual time stepped so far
	nextSync  time.Duration
	syncEvery time.Duration

	lastSamples                                  uint64 // samples() after the last step
	retiredSamples, retiredPoints, retiredMissed uint64
	snap                                         []fleet.Status
	names                                        []string
}

func newLeaf(name string, seed uint64, names, kinds []string, syncEvery time.Duration) (*leaf, error) {
	mgr, err := fleet.FromSpec(buildSpec(names, kinds), seed, fleet.Config{})
	if err != nil {
		return nil, err
	}
	l := &leaf{
		name: name, seed: seed, mgr: mgr,
		kinds: make(map[string]string, len(names)), index: make(map[string]int, len(names)), size0: len(names),
		syncEvery: syncEvery, nextSync: syncEvery,
	}
	for i, n := range names {
		l.kinds[n] = kinds[i]
		l.index[n] = i
	}
	l.h = export.New(mgr).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	l.url = "http://" + ln.Addr().String()
	l.srv = &http.Server{Handler: l.h, ReadHeaderTimeout: 10 * time.Second}
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

func (l *leaf) close() {
	_ = l.srv.Close()
	<-l.done
	l.mgr.Close()
}

// samples is every native-rate sample the leaf ever ingested, retired
// stations included.
func (l *leaf) samples() uint64 {
	l.snap = l.mgr.SnapshotInto(l.snap[:0])
	n := l.retiredSamples
	for i := range l.snap {
		n += l.snap[i].Samples
	}
	return n
}

// historyPoints is every point the leaf's history tier ever accepted.
func (l *leaf) historyPoints() uint64 {
	return l.mgr.HistoryStats().Appended + l.retiredPoints
}

// scrapeInfo is what one parsed /metrics body says.
type scrapeInfo struct {
	boardWatts int // powersensor_board_watts series
	// detBytes counts the bytes of sample lines that are pure functions
	// of the seed: every line except self-telemetry and wall-clock
	// families (their names carry "_self_" or "seconds").
	detBytes     int
	shardRenders float64 // powersensor_self_shard_renders_total (leaf bodies)
	leafPolls    float64 // sum of powersensor_leaf_polls_total (head bodies)
	leafRenders  float64 // sum of powersensor_leaf_renders_total (head bodies)
}

// parseMetrics parses a text exposition body line by line: every sample
// line must be `name[{labels}] value` with a float value.
func parseMetrics(body []byte) (scrapeInfo, error) {
	var si scrapeInfo
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return si, errors.New("exposition does not end in a newline")
		}
		line := body[:nl]
		body = body[nl+1:]
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp <= 0 {
			return si, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			return si, fmt.Errorf("sample line %q: %v", line, err)
		}
		name := line[:sp]
		if br := bytes.IndexByte(name, '{'); br >= 0 {
			if name[len(name)-1] != '}' {
				return si, fmt.Errorf("unterminated labels in %q", line)
			}
			name = name[:br]
		}
		switch string(name) {
		case "powersensor_board_watts":
			si.boardWatts++
		case "powersensor_self_shard_renders_total":
			si.shardRenders = v
		case "powersensor_leaf_polls_total":
			si.leafPolls += v
		case "powersensor_leaf_renders_total":
			si.leafRenders += v
		}
		if !bytes.Contains(name, []byte("_self_")) && !bytes.Contains(name, []byte("seconds")) {
			si.detBytes += len(line) + 1
		}
	}
	return si, nil
}

// energyAnswer mirrors the fields of an /energy response the gate checks.
type energyAnswer struct {
	Device string  `json:"device"`
	Joules float64 `json:"joules"`
}

// checkEnergy checks an /energy answer against Device.EnergyWindow for
// the same window in the same state. The two must agree exactly: JSON
// round-trips a float64.
func checkEnergy(body []byte, name string, want float64) error {
	var ans energyAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("energy %s: %v", name, err)
	}
	if ans.Device != name || ans.Joules != want {
		return fmt.Errorf("energy %s: answered %s %v J, EnergyWindow says %v J", name, ans.Device, ans.Joules, want)
	}
	return nil
}

// markBaseline records every station's virtual time and backend energy
// once the first warm-up second has put its first ring points into
// history.
func (l *leaf) markBaseline() {
	l.base = make(map[string]fleet.Status, l.mgr.Size())
	for _, st := range l.mgr.SnapshotInto(nil) {
		l.base[st.Name] = st
	}
}

// checkConservation checks that each fault-free station's history energy
// from its baseline to now is within 1% of the reference integral over
// the same window. The window starts at the baseline, not at zero:
// history holds ring points, and a 10 Hz meter's first point lands
// 100 ms after its energy counter started. Stations churned in after the
// baseline are not checked.
//
// The reference is the backend's own integral, Status.Joules, except for
// the slow software meters. Their delivered stream need not integrate to
// their energy counter before the fleet touches it: the NVML model
// reports power averaged the way the real counter averages it (about 2%
// low over a few seconds), and a 100 Hz rate limit on a 1 kHz RAPL meter
// drops the samples that carry short transients (about 1%). For those
// the reference is the trapezoid of the same delivered stream, replayed
// from a fresh source with the station's seed: the fleet, ring and
// history layers must not lose energy the source delivered.
func checkConservation(l *leaf, g *gate) {
	for _, st := range l.mgr.SnapshotInto(nil) {
		st0, ok := l.base[st.Name]
		kind := l.kinds[st.Name]
		if !ok || isFaulted(kind) {
			continue
		}
		got := l.mgr.Device(st.Name).EnergyWindow(st0.Now, st.Now)
		want := st.Joules - st0.Joules
		var err error
		if isSlowMeter(kind) {
			want, err = replayEnergy(kind, l.seed, l.index[st.Name], st0.Now, st.Now)
		}
		if rel := math.Abs(got-want) / want; err == nil && !(rel <= 0.01) {
			err = fmt.Errorf("conservation %s/%s (%s, %v to %v): history %.6g J vs reference %.6g J (%.2f%% off; health %s, %d gaps, %d spikes quarantined)",
				l.name, st.Name, kind, st0.Now, st.Now, got, want, 100*rel, st.Health, st.Gaps, st.SpikesQuarantined)
		}
		g.check(err)
	}
}

// replayEnergy builds station index's source afresh and integrates its
// raw samples over [from, to] by trapezoids.
func replayEnergy(kind string, seed uint64, index int, from, to time.Duration) (float64, error) {
	src, err := simsetup.BuildStation(kind, seed, index)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	var (
		b     source.Batch
		joule float64
		lastT time.Duration
		lastW float64
		have  bool
	)
	for src.Now() < to {
		if err := src.ReadInto(5*time.Millisecond, &b); err != nil {
			return 0, err
		}
		for i := 0; i < b.Len(); i++ {
			t, w := b.Time[i], b.Total[i]
			if have && lastT >= from && t <= to {
				joule += (w + lastW) / 2 * (t - lastT).Seconds()
			}
			lastT, lastW, have = t, w, true
		}
	}
	return joule, nil
}

// churnOne retires a seeded non-rig station and adopts a fresh one of
// the same kindspec, timing each fleet call under the current round.
func (b *bench) churnOne(l *leaf) {
	l.names = l.mgr.NamesInto(l.names[:0])
	var victim string
	for {
		victim = l.names[b.rng.Intn(len(l.names))]
		if !isRig(l.kinds[victim]) {
			break
		}
	}
	kind := l.kinds[victim]
	d := l.mgr.Device(victim)
	var err error
	b.removeUS.addDur(b.timed("fleet.remove", func() { err = l.mgr.Remove(victim) }))
	b.gate.check(err)
	// A retired device stays readable: its last status and history
	// accounting keep the leaf's lifetime counts whole.
	l.retiredSamples += d.Status().Samples
	hs := d.HistoryStats()
	l.retiredPoints += hs.Appended
	l.retiredMissed += hs.RingMissed
	delete(l.kinds, victim)

	// Fresh names are unique across leaves, and fresh seed indexes lie
	// past every initial station's.
	name := fmt.Sprintf("%s.n%05d", l.name, l.fresh)
	index := 1<<20 + l.fresh
	l.fresh++
	var src source.Source
	b.timed("source.build", func() { src, err = simsetup.BuildStation(kind, l.seed, index) })
	if err == nil {
		b.addUS.addDur(b.timed("fleet.add", func() { _, err = l.mgr.Add(name, kind, src) }))
	}
	b.gate.check(err)
	l.kinds[name] = kind
}
