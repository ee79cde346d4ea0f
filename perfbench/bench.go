package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/federation"
	"repro/internal/rng"
	"repro/internal/simsetup"
	"repro/internal/source"
)

// workload fixes the shape of one closed loop. Every round steps one
// leaf's fleet by step of virtual time (replacing a churn share of its
// stations per virtual second and syncing history every syncEvery of its
// virtual time), polls the head if there is one, then issues a cold and a
// repeat /metrics and energyPerRound energy queries at the front door.
type workload struct {
	leaves         int           // 1, or 2 behind a federation head
	warm           time.Duration // virtual history each leaf builds at set-up
	step           time.Duration
	syncEvery      time.Duration
	energyPerRound int
	prefixRounds   int     // rounds each set-up replays for the determinism check
	heapRound      int     // round after which the untraced run reads the live heap
	probeEvery     int     // traced in-process rounds between probe passes
	churn          float64 // share of a leaf's stations replaced per virtual second
}

var workloads = map[string]*workload{
	"ingest": {leaves: 1, warm: time.Second, step: 200 * time.Millisecond, syncEvery: time.Second,
		energyPerRound: 2, prefixRounds: 5, heapRound: 80, probeEvery: 4, churn: 0.01},
	"serve": {leaves: 1, warm: 2 * time.Second, step: time.Millisecond, syncEvery: 10 * time.Millisecond,
		energyPerRound: 4, prefixRounds: 50, heapRound: 1000, probeEvery: 32, churn: 0.02},
	"federation": {leaves: 2, warm: 2 * time.Second, step: time.Millisecond, syncEvery: 10 * time.Millisecond,
		energyPerRound: 2, prefixRounds: 50, heapRound: 400, probeEvery: 32, churn: 0.04},
}

// Round modes. An untraced run uses only modeUntraced. A traced run
// cycles through all three: untraced rounds give the end-to-end baseline
// inside the traced process, traced HTTP rounds time the same requests
// with spans on (their difference is the tracing overhead), and traced
// local rounds replace each HTTP request by the in-process handler call
// it breaks down, against the same cache state.
const (
	modeUntraced = iota
	modeTracedHTTP
	modeTracedLocal
	nModes
)

// modeStats collects one round mode's end-to-end timings.
type modeStats struct {
	rounds  int
	samples uint64  // samples ingested over all rounds
	busy    samples // per round: the sum of its timed operations, µs
	scrape  samples // cold front-door /metrics, ms
	repeat  samples // repeat front-door /metrics, ms
	energy  samples // front-door energy query, ms
}

// detCounts are the counts a set-up's prefix rounds must replay exactly.
type detCounts struct {
	Samples, HistoryPoints, ScrapeBytes, Renders, NotModified uint64
}

type bench struct {
	o      options
	wl     *workload
	rng    *rng.Source
	gate   gate
	leaves []*leaf
	client *http.Client

	// The front door: the leaf exporter, or the federation head.
	head     *federation.Head
	headSrv  *http.Server
	headDone chan struct{}
	frontURL string
	frontH   http.Handler

	tr    *tracer // traced runs only
	cur   *tracer // the current round's tracer; nil in untraced rounds
	busy  time.Duration
	round int
	body  bytes.Buffer
	rec   recorder

	st                [nModes]modeStats
	roundSamples      uint64
	liveHeap          float64 // heap objects after a forced collection at round heapRound
	rt0, rt1          rtSnap
	detOn             bool
	detScrapeBytes    uint64
	lastRenders       float64 // front leaf's shard-render counter at the last repeat scrape
	addUS, removeUS   samples // every churn call of the measured loop, traced or not, in ms
	rendersPerScrape  samples
	rendersPerRepeat  samples
	metricsAllocs     samples
	metricsBytes      samples
	stepAllocs        uint64
	stepBusy          time.Duration
	stepSamples       uint64
	syncPointsTraced  uint64
	localRounds       int
	shadows           []*shadow
	probeHead         *federation.Head
	probeRenderers    []*export.LeafRenderer
	probeSegs         []export.LeafSegment
	probeBuf          []byte
	probeLeafRenders  []float64
	lastHeadMetricsSI scrapeInfo
}

func newBench(o options, wl *workload) (*bench, error) {
	b := &bench{o: o, wl: wl, rng: rng.New(o.seed ^ 0x5eed0fbe4c4)}
	b.rec.hdr = http.Header{}
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true, IdleConnTimeout: time.Minute}
	b.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}

	kinds := fleetKinds(o.stations, rng.New(o.seed))
	parts := make([][2][]string, wl.leaves)
	for i, k := range kinds {
		p := &parts[i%wl.leaves]
		p[0] = append(p[0], stationName(i))
		p[1] = append(p[1], k)
	}
	for i := range parts {
		l, err := newLeaf(fmt.Sprintf("leaf%d", i), o.seed+uint64(i)*7919, parts[i][0], parts[i][1], wl.syncEvery)
		if err != nil {
			b.close()
			return nil, err
		}
		b.leaves = append(b.leaves, l)
		for v := time.Duration(0); v < wl.warm; v += time.Second {
			l.mgr.StepAll(time.Second)
			l.mgr.SyncHistory() // a miss here shows in the end-of-run ring check
			if v == 0 {
				l.markBaseline()
			}
		}
		l.vnow, l.nextSync = wl.warm, wl.warm+wl.syncEvery
	}
	b.frontURL, b.frontH = b.leaves[0].url, b.leaves[0].h
	if wl.leaves > 1 {
		var ls []federation.Leaf
		for _, l := range b.leaves {
			ls = append(ls, federation.Leaf{Name: l.name, URL: l.url})
		}
		h, err := federation.New(federation.Config{Leaves: ls})
		if err != nil {
			b.close()
			return nil, err
		}
		b.head = h
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.close()
			return nil, err
		}
		b.frontURL, b.frontH = "http://"+ln.Addr().String(), h.Handler()
		b.headSrv = &http.Server{Handler: b.frontH, ReadHeaderTimeout: 10 * time.Second}
		b.headDone = make(chan struct{})
		go func() {
			defer close(b.headDone)
			_ = b.headSrv.Serve(ln)
		}()
		h.PollOnce(context.Background())
		if h.UpCount() != len(b.leaves) {
			b.close()
			return nil, fmt.Errorf("head sees %d of %d leaves up after its first poll", h.UpCount(), len(b.leaves))
		}
	}
	for _, l := range b.leaves {
		l.lastSamples = l.samples()
	}
	return b, nil
}

func (b *bench) close() {
	if b.headSrv != nil {
		_ = b.headSrv.Close()
		<-b.headDone
	}
	for _, l := range b.leaves {
		l.close()
	}
	b.client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
}

// prefix replays the set-up's first rounds untraced and returns the
// counts they produced; the measured loop then continues from there.
func (b *bench) prefix() detCounts {
	b.detOn = true
	for i := 0; i < b.wl.prefixRounds; i++ {
		b.doRound(modeUntraced)
	}
	b.detOn = false
	var d detCounts
	for _, l := range b.leaves {
		d.Samples += l.samples()
		d.HistoryPoints += l.historyPoints()
	}
	d.ScrapeBytes = b.detScrapeBytes
	if b.head != nil {
		si := b.lastHeadMetricsSI
		d.Renders = uint64(si.leafRenders)
		d.NotModified = uint64(si.leafPolls - si.leafRenders)
	} else {
		d.Renders = uint64(b.lastRenders)
	}
	return d
}

// enableTracing builds what the traced loop needs beyond the workload:
// the span recorder, shadow sources, probe renderers and, for workloads
// without a head, a probe head over the leaf.
func (b *bench) enableTracing() error {
	b.tr = newTracer()
	var err error
	if b.shadows, err = newShadows(b.leaves, b.o.seed); err != nil {
		return err
	}
	for _, l := range b.leaves {
		b.probeRenderers = append(b.probeRenderers, export.NewLeafRenderer(l.name))
	}
	b.probeSegs = make([]export.LeafSegment, len(b.leaves))
	b.probeLeafRenders = make([]float64, len(b.leaves))
	if b.head == nil {
		b.probeHead, err = federation.New(federation.Config{Leaves: []federation.Leaf{{Name: b.leaves[0].name, URL: b.leaves[0].url}}})
		if err != nil {
			return err
		}
		b.probeHead.PollOnce(context.Background())
	}
	return nil
}

// measure runs rounds until d of wall time has passed. An untraced run
// also reads the live heap after round heapRound, a fixed point of
// virtual time: history grows with virtual time until its budget fills,
// so a reading at the end would grow with how fast the loop ran. If the
// loop has not reached that round when d is up, it runs on until it has.
func (b *bench) measure(d time.Duration) {
	b.st = [nModes]modeStats{}
	b.addUS, b.removeUS = nil, nil
	runtime.GC()
	b.rt0 = readRT()
	deadline := time.Now().Add(d)
	heapDue := b.tr == nil
	for heapDue || time.Now().Before(deadline) {
		mode := modeUntraced
		if b.tr != nil {
			mode = b.round % nModes
		}
		b.doRound(mode)
		if heapDue && b.round >= b.wl.heapRound {
			runtime.GC()
			b.liveHeap = readHeap()
			heapDue = false
		}
	}
	b.rt1 = readRT()
}

// timed runs f as one of the round's operations: its duration counts
// toward the round's busy time, and traced rounds record it as a span.
func (b *bench) timed(name string, f func()) time.Duration {
	sp := b.cur.begin(name)
	began := time.Now()
	f()
	d := time.Since(began)
	b.cur.end(sp)
	b.busy += d
	return d
}

// probe runs f as a traced side measurement: a span, but no busy time.
func (b *bench) probe(name string, f func()) {
	sp := b.tr.begin(name)
	f()
	b.tr.end(sp)
}

func (b *bench) doRound(mode int) {
	b.cur = nil
	if mode != modeUntraced {
		b.cur = b.tr
		b.tr.round = int32(b.round)
	}
	b.busy, b.roundSamples = 0, 0
	root := b.cur.begin("round")
	l := b.leaves[b.round%len(b.leaves)]
	b.stepLeaf(l, mode)
	if b.head != nil {
		b.timed("federation.poll", func() { b.head.PollOnce(context.Background()) })
		b.checkHeadFleet()
	}
	b.scrapes(mode)
	for i := 0; i < b.wl.energyPerRound; i++ {
		b.energy(mode)
	}
	b.cur.end(root)

	st := &b.st[mode]
	st.rounds++
	st.samples += b.roundSamples
	st.busy.add(float64(b.busy) / float64(time.Microsecond))
	if mode == modeTracedLocal {
		if b.localRounds%b.wl.probeEvery == 0 {
			b.probes(l)
		}
		b.localRounds++
	}
	b.round++
}

// stepLeaf advances one leaf: StepAll, then churn and history syncs as
// the leaf's virtual clock comes due for them.
func (b *bench) stepLeaf(l *leaf, mode int) {
	var a0 allocSnap
	h0 := l.mgr.ShardStepHist().Sum()
	if mode == modeTracedLocal {
		a0 = readAllocs()
	}
	b.timed("fleet.step", func() { l.mgr.StepAll(b.wl.step) })
	if mode == modeTracedLocal {
		b.stepAllocs += readAllocs().objects - a0.objects
	}
	after := l.samples()
	n := after - l.lastSamples
	l.lastSamples = after
	b.roundSamples += n
	if mode == modeTracedLocal {
		b.stepBusy += l.mgr.ShardStepHist().Sum() - h0
		b.stepSamples += n
	}
	l.vnow += b.wl.step
	l.churnDue += b.wl.step.Seconds() * b.wl.churn * float64(l.size0)
	for l.churnDue >= 1 {
		l.churnDue--
		b.churnOne(l)
	}
	for l.vnow >= l.nextSync {
		l.nextSync += l.syncEvery
		var appended int
		var missed uint64
		b.timed("history.sync", func() { appended, missed = l.mgr.SyncHistory() })
		if mode != modeUntraced {
			b.syncPointsTraced += uint64(appended)
		}
		var err error
		if missed > 0 {
			err = fmt.Errorf("history sync on %s missed %d ring points", l.name, missed)
		}
		b.gate.check(err)
	}
}

// liveStations is the fleet size the front door must expose.
func (b *bench) liveStations() int {
	n := 0
	for _, l := range b.leaves {
		n += l.mgr.Size()
	}
	return n
}

// scrapes issues the round's cold and repeat /metrics at the front door.
func (b *bench) scrapes(mode int) {
	cold, repeat := "export.metrics_cold", "export.metrics_repeat"
	if b.head != nil {
		cold, repeat = "federation.head_metrics", "federation.head_metrics_repeat"
	}
	for i, name := range []string{cold, repeat} {
		var code int
		var d time.Duration
		var body []byte
		var err error
		if mode == modeTracedLocal {
			code, body, d = b.local(b.frontH, "/metrics", name, true, i == 0 && b.head == nil)
		} else {
			code, body, d, err = b.get(b.frontURL+"/metrics", []string{"http.metrics_cold", "http.metrics_repeat"}[i])
		}
		if i == 0 {
			b.st[mode].scrape.addDur(d)
		} else {
			b.st[mode].repeat.addDur(d)
		}
		si, perr := b.checkMetrics(code, body, err)
		if perr != nil {
			continue
		}
		if b.detOn {
			b.detScrapeBytes += uint64(si.detBytes)
		}
		if b.head != nil {
			b.lastHeadMetricsSI = si
			continue
		}
		if i == 0 {
			b.rendersPerScrape.add(si.shardRenders - b.lastRenders)
		} else {
			b.rendersPerRepeat.add(si.shardRenders - b.lastRenders)
		}
		b.lastRenders = si.shardRenders
	}
}

// checkMetrics gates one /metrics answer: 200, parseable, and exactly one
// powersensor_board_watts series per live station.
func (b *bench) checkMetrics(code int, body []byte, err error) (scrapeInfo, error) {
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", code)
	}
	var si scrapeInfo
	if err == nil {
		si, err = parseMetrics(body)
	}
	if err == nil {
		if want := b.liveStations(); si.boardWatts != want {
			err = fmt.Errorf("/metrics: %d powersensor_board_watts series for %d live stations", si.boardWatts, want)
		}
	}
	b.gate.check(err)
	return si, err
}

// checkHeadFleet gates the head's merged fleet view: every live station
// listed, every leaf up.
func (b *bench) checkHeadFleet() {
	v := b.head.FleetView()
	var err error
	if want := b.liveStations(); len(v.Devices) != want {
		err = fmt.Errorf("head fleet view lists %d stations, want %d", len(v.Devices), want)
	}
	for _, li := range v.Leaves {
		if !li.Up || li.Stale {
			err = fmt.Errorf("head sees leaf %s up=%v stale=%v (%s)", li.Leaf, li.Up, li.Stale, li.LastError)
		}
	}
	b.gate.check(err)
}

// energy issues one seeded energy query at the front door: a random live
// station, over the window [now-W, now] with W log-uniform between 10 ms
// and the station's whole history.
func (b *bench) energy(mode int) {
	l := b.leaves[b.rng.Intn(len(b.leaves))]
	l.names = l.mgr.NamesInto(l.names[:0])
	name := l.names[b.rng.Intn(len(l.names))]
	dev := l.mgr.Device(name)
	to := dev.Status().Now
	w := to
	if lo := 10 * time.Millisecond; to > lo {
		w = time.Duration(float64(lo) * math.Pow(float64(to)/float64(lo), b.rng.Float64()))
	}
	from := to - w
	path := fmt.Sprintf("/api/device/%s/energy?from=%dns&to=%dns", name, int64(from), int64(to))

	var code int
	var body []byte
	var d time.Duration
	var err error
	if mode == modeTracedLocal {
		code, body, d = b.local(l.h, path, "export.energy", true, false)
	} else {
		url := b.frontURL + path
		if b.head != nil {
			url = fmt.Sprintf("%s/api/device/%s/%s/energy?from=%dns&to=%dns", b.frontURL, l.name, name, int64(from), int64(to))
		}
		code, body, d, err = b.get(url, "http.energy")
	}
	b.st[mode].energy.addDur(d)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("energy %s: status %d: %s", name, code, strings.TrimSpace(string(body)))
	}
	if err == nil {
		sp := b.cur.begin("history.query")
		want := dev.EnergyWindow(from, to)
		b.cur.end(sp)
		err = checkEnergy(body, name, want)
	}
	b.gate.check(err)
}

// get issues one front-door HTTP request as a round operation and reads
// the whole body into the shared buffer.
func (b *bench) get(url, span string) (code int, body []byte, d time.Duration, err error) {
	var resp *http.Response
	d = b.timed(span, func() {
		resp, err = b.client.Get(url)
		if err != nil {
			return
		}
		b.body.Reset()
		_, err = b.body.ReadFrom(resp.Body)
		resp.Body.Close()
	})
	if err != nil {
		return 0, nil, d, fmt.Errorf("GET %s: %w", url, err)
	}
	return resp.StatusCode, b.body.Bytes(), d, nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// local serves path through h in-process. As a round operation (busy)
// it counts toward the round; otherwise it is a probe span. countAllocs
// records the heap allocations the call made.
func (b *bench) local(h http.Handler, path, span string, busy, countAllocs bool) (int, []byte, time.Duration) {
	req, err := http.NewRequest(http.MethodGet, "http://perfbench"+path, nil)
	if err != nil {
		b.gate.check(err)
		return 0, nil, 0
	}
	clear(b.rec.hdr)
	b.rec.code = 0
	b.rec.body.Reset()
	var a0 allocSnap
	if countAllocs {
		a0 = readAllocs()
	}
	var d time.Duration
	if busy {
		d = b.timed(span, func() { h.ServeHTTP(&b.rec, req) })
	} else {
		b.probe(span, func() {
			began := time.Now()
			h.ServeHTTP(&b.rec, req)
			d = time.Since(began)
		})
	}
	if countAllocs {
		a1 := readAllocs()
		b.metricsAllocs.add(float64(a1.objects - a0.objects))
		b.metricsBytes.add(float64(a1.bytes - a0.bytes))
	}
	return b.rec.code, b.rec.body.Bytes(), d
}

// probes breaks down the layers a round's requests pass through but
// cannot be timed from outside one request: the fleet snapshot, the
// /api/fleet body a head polls and its decode, leaf render and assembly,
// and the source and pipeline cost per sample on shadow sources. In the
// federation workload it also scrapes the stepped leaf in-process; in
// the others a probe head polls the leaf and serves its merged /metrics.
// None of it changes a cache the round's requests read.
func (b *bench) probes(l *leaf) {
	root := b.tr.begin("probe")
	b.probe("fleet.snapshot", func() { l.snap = l.mgr.SnapshotInto(l.snap[:0]) })
	code, body, _ := b.local(l.h, "/api/fleet", "export.fleet_json", false, false)
	var view export.FleetJSON
	var err error
	b.probe("federation.decode", func() { err = json.Unmarshal(body, &view) })
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s /api/fleet: status %d", l.name, code)
	}
	b.gate.check(err)
	li := 0
	for i := range b.leaves {
		if b.leaves[i] == l {
			li = i
		}
	}
	b.probe("federation.leaf_render", func() { b.probeRenderers[li].Render(view.Devices) })
	for i, r := range b.probeRenderers {
		r.CopySegment(&b.probeSegs[i])
	}
	b.probe("federation.assemble", func() { b.probeBuf = export.AppendLeafSegments(b.probeBuf[:0], b.probeSegs) })
	b.shadowProbe()
	if b.head != nil {
		// The head never scrapes a leaf's /metrics, so these warm no
		// cache the round reads.
		for i, name := range []string{"export.metrics_cold", "export.metrics_repeat"} {
			code, body, _ := b.local(l.h, "/metrics", name, false, i == 0)
			si, err := parseMetrics(body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("%s /metrics: status %d", l.name, code)
			}
			b.gate.check(err)
			if i == 0 {
				b.rendersPerScrape.add(si.shardRenders - b.probeLeafRenders[li])
			} else {
				b.rendersPerRepeat.add(si.shardRenders - b.probeLeafRenders[li])
			}
			b.probeLeafRenders[li] = si.shardRenders
		}
	} else {
		b.probe("federation.poll", func() { b.probeHead.PollOnce(context.Background()) })
		code, _, _ := b.local(b.probeHead.Handler(), "/metrics", "federation.head_metrics", false, false)
		var err error
		if code != http.StatusOK {
			err = fmt.Errorf("probe head /metrics: status %d", code)
		}
		b.gate.check(err)
	}
	b.tr.end(root)
}

// finalChecks runs the end-of-run gates: a last history sync must lose
// nothing, energy must be conserved, and a federation head's /api/fleet
// must list every station with every leaf up.
func (b *bench) finalChecks() {
	for _, l := range b.leaves {
		// Finish on a whole virtual second, where every meter's sample
		// grid lands, so no window edge falls between samples.
		if rest := l.vnow % time.Second; rest != 0 {
			l.mgr.StepAll(time.Second - rest)
			l.vnow += time.Second - rest
		}
		l.mgr.SyncHistory()
		checkConservation(l, &b.gate)
	}
	var err error
	if missed := b.ringMissedTotal(); missed > 0 {
		err = fmt.Errorf("history lost %d ring points to wraparound", missed)
	}
	b.gate.check(err)
	if b.head != nil {
		code, body, _, err := b.get(b.frontURL+"/api/fleet", "http.head_fleet")
		var v federation.HeadFleetJSON
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("head /api/fleet: status %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &v)
		}
		if err == nil && len(v.Devices) != b.liveStations() {
			err = fmt.Errorf("head /api/fleet lists %d stations, want %d", len(v.Devices), b.liveStations())
		}
		b.gate.check(err)
	}
}

// ringMissedTotal counts the ring points every station, live or retired,
// lost to wraparound before a sync reached them.
func (b *bench) ringMissedTotal() uint64 {
	var n uint64
	for _, l := range b.leaves {
		n += l.mgr.HistoryStats().RingMissed + l.retiredMissed
	}
	return n
}

// endToEnd fills the untraced run's metrics.
func (b *bench) endToEnd(res *result, setupS float64) {
	a := &b.st[modeUntraced]
	set := func(name, unit string, v float64) { res.Metrics[name] = metricValue{v, unit} }
	set("setup_s", "s", setupS)
	set("heap_live_mb", "MB", b.liveHeap/1e6)
	// Samples over busy time, summed over every round: a per-round median
	// would drop the rounds that also sync history or churn stations,
	// which are the slowest ones.
	set("msamples_per_s", "Msample/s", float64(a.samples)/sum(a.busy))
	set("scrape_p50_ms", "ms", median(a.scrape))
	set("scrape_repeat_p50_ms", "ms", median(a.repeat))
	set("energy_p50_ms", "ms", median(a.energy))
	for _, c := range []struct {
		name string
		s    samples
	}{{"round_us", a.busy}, {"scrape", a.scrape}, {"repeat", a.repeat}, {"energy", a.energy}} {
		p99, beyond := percentile(c.s, 99)
		fmt.Fprintf(os.Stderr, "perfbench: %-6s n=%d p50=%.4g p99=%.4g (%d beyond)\n", c.name, len(c.s), median(c.s), p99, beyond)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, gc cycles %d, gc cpu %.3f\n",
		a.rounds, b.rt1.gcCycles-b.rt0.gcCycles, gcShare(b.rt0, b.rt1))
}

// perLayer fills the traced run's metrics.
func (b *bench) perLayer(res *result) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metricValue{v, unit} }
	us := func(name string) samples {
		var s samples
		for _, d := range b.tr.durations(name) {
			s.add(float64(d) / float64(time.Microsecond))
		}
		return s
	}
	a, h, l := &b.st[modeUntraced], &b.st[modeTracedHTTP], &b.st[modeTracedLocal]

	read, stages, readAllocs := shadowCosts(b.shadows)
	step := float64(b.stepBusy) / float64(b.stepSamples)
	set("source.read_ns_per_sample", "ns", read)
	set("pipeline.stages_ns_per_sample", "ns", stages)
	set("fleet.step_ns_per_sample", "ns", step)
	set("fleet.fold_ns_per_sample", "ns", step-read-stages)
	stepAllocs := 1000 * float64(b.stepAllocs) / float64(b.stepSamples)
	set("source.read_allocs_per_ksample", "count", readAllocs)
	set("fleet.step_allocs_per_ksample", "count", stepAllocs)
	set("fleet.fold_allocs_per_ksample", "count", stepAllocs-readAllocs)
	set("fleet.add_us", "us", 1000*median(b.addUS))
	set("fleet.remove_us", "us", 1000*median(b.removeUS))
	set("fleet.snapshot_us", "us", median(us("fleet.snapshot")))

	var syncNs time.Duration
	for _, d := range b.tr.durations("history.sync") {
		syncNs += d
	}
	set("history.sync_ns_per_point", "ns", float64(syncNs)/float64(b.syncPointsTraced))
	set("history.ring_missed", "count", float64(b.ringMissedTotal()))
	set("history.query_us", "us", median(us("history.query")))
	var bytes, points uint64
	for _, lf := range b.leaves {
		hs := lf.mgr.HistoryStats()
		bytes += hs.Bytes
		points += hs.Points
	}
	set("history.bytes_per_point", "B", float64(bytes)/float64(points))

	set("export.metrics_cold_us", "us", median(us("export.metrics_cold")))
	set("export.metrics_repeat_us", "us", median(us("export.metrics_repeat")))
	set("export.metrics_allocs", "count", median(b.metricsAllocs))
	set("export.metrics_bytes", "B", median(b.metricsBytes))
	set("export.shard_renders_per_scrape", "count", mean(b.rendersPerScrape))
	set("export.shard_renders_per_repeat", "count", mean(b.rendersPerRepeat))
	set("export.energy_us", "us", median(us("export.energy")))
	set("export.fleet_json_us", "us", median(us("export.fleet_json")))

	// Transport: the HTTP request minus the in-process call that replaced
	// it in traced local rounds. On federation the energy request is
	// proxied and its replacement is the leaf's own handler, so energy
	// transport there also holds the head's proxying and the second hop.
	coldLocal, repeatLocal := "export.metrics_cold", "export.metrics_repeat"
	if b.head != nil {
		coldLocal, repeatLocal = "federation.head_metrics", "federation.head_metrics_repeat"
	}
	httpCold := median(us("http.metrics_cold")) - median(b.localRoundSpans(coldLocal))
	httpEnergy := median(us("http.energy")) - median(b.localRoundSpans("export.energy"))
	set("http.metrics_transport_us", "us", httpCold)
	set("http.energy_transport_us", "us", httpEnergy)

	set("federation.poll_us", "us", median(us("federation.poll")))
	set("federation.decode_us", "us", median(us("federation.decode")))
	set("federation.leaf_render_us", "us", median(us("federation.leaf_render")))
	set("federation.assemble_us", "us", median(us("federation.assemble")))
	set("federation.head_metrics_us", "us", median(us("federation.head_metrics")))
	hd := b.head
	if hd == nil {
		hd = b.probeHead
	}
	_, body, _ := b.local(hd.Handler(), "/metrics", "federation.head_metrics_final", false, false)
	si, err := parseMetrics(body)
	b.gate.check(err)
	set("federation.not_modified_ratio", "ratio", (si.leafPolls-si.leafRenders)/si.leafPolls)

	set("gc.cycles", "count", float64(b.rt1.gcCycles-b.rt0.gcCycles))
	set("gc.cpu_fraction", "ratio", gcShare(b.rt0, b.rt1))

	over := median(h.busy) - median(a.busy)
	set("trace.overhead_us_per_round", "us", over)
	set("trace.overhead_share", "ratio", over/median(a.busy))
	// Residual: the untraced round minus the self-times of its layers. A
	// traced local round's operations are the top-level layers (step,
	// sync, churn, poll, each request's in-process handler) and transport
	// is each endpoint's HTTP minus in-process time, so together they
	// account for the whole round by construction. What is left is the
	// gap between round modes: drift between them, and whatever an HTTP
	// round costs that neither its in-process replacement nor transport
	// covers. It cannot expose unnamed work inside a handler.
	transport := mean(us("http.metrics_cold")) - mean(b.localRoundSpans(coldLocal)) +
		mean(us("http.metrics_repeat")) - mean(b.localRoundSpans(repeatLocal)) +
		(mean(us("http.energy"))-mean(b.localRoundSpans("export.energy")))*float64(b.wl.energyPerRound)
	resid := mean(a.busy) - mean(l.busy) - transport
	set("trace.residual_us_per_round", "us", resid)
	set("trace.residual_share", "ratio", resid/mean(a.busy))

	// Tails from the traced run's untraced rounds, each with its sample
	// count; stderr says how many samples lie beyond each p99.
	p99s, bs := percentile(a.scrape, 99)
	p99e, be := percentile(a.energy, 99)
	set("e2e.rounds", "count", float64(a.rounds))
	set("e2e.scrape_n", "count", float64(len(a.scrape)))
	set("e2e.scrape_p99_ms", "ms", p99s)
	set("e2e.energy_n", "count", float64(len(a.energy)))
	set("e2e.energy_p99_ms", "ms", p99e)
	fmt.Fprintf(os.Stderr, "perfbench: scrape p99 %.4g ms (%d of %d beyond), energy p99 %.4g ms (%d of %d beyond)\n",
		p99s, bs, len(a.scrape), p99e, be, len(a.energy))
}

// localRoundSpans returns, in µs, the durations of the spans named name
// that ran as operations of traced local rounds (not probes).
func (b *bench) localRoundSpans(name string) samples {
	var s samples
	for i := range b.tr.spans {
		sp := &b.tr.spans[i]
		if sp.name != name || int(sp.round)%nModes != modeTracedLocal || sp.parent < 0 {
			continue
		}
		if b.tr.spans[sp.parent].name != "round" {
			continue
		}
		s.add(float64(sp.end-sp.start) / float64(time.Microsecond))
	}
	return s
}

// shadow is a pair of sources mirroring one kindspec of the fleet: the
// bare backend and the full stage chain, advanced in lockstep, so
// ReadInto time splits into source cost and stage cost.
type shadow struct {
	weight        float64 // stations of this kindspec in the fleet
	bare, chain   source.Source
	bb, cb        source.Batch
	tBare, tChain time.Duration
	nBare         uint64 // samples of the timed bare reads
	aBare, naBare uint64 // heap allocations and samples of the counted bare reads
	quantum       time.Duration
}

func newShadows(leaves []*leaf, seed uint64) ([]*shadow, error) {
	counts := map[string]int{}
	var order []string
	for _, l := range leaves {
		for _, k := range l.kinds {
			if counts[k] == 0 {
				order = append(order, k)
			}
			counts[k]++
		}
	}
	// Map order is random; the shadows' seeds must not be.
	sort.Strings(order)
	var out []*shadow
	for i, k := range order {
		bareKind, _, staged := strings.Cut(k, "|")
		sh := &shadow{weight: float64(counts[k]), quantum: 5 * time.Millisecond}
		var err error
		if sh.bare, err = simsetup.BuildStation(bareKind, seed, 1<<20+i); err != nil {
			return nil, err
		}
		if staged {
			if sh.chain, err = simsetup.BuildStation(k, seed, 1<<20+i); err != nil {
				return nil, err
			}
		}
		out = append(out, sh)
	}
	return out, nil
}

// shadowProbe advances every shadow by 20 ReadInto calls of the fleet's
// step quantum (the Manager's 5 ms slice, or a shorter round step), then
// counts the allocations of one more bare read.
func (b *bench) shadowProbe() {
	q := 5 * time.Millisecond
	if b.wl.step < q {
		q = b.wl.step
	}
	b.probe("source.shadow", func() {
		for _, sh := range b.shadows {
			for i := 0; i < 20; i++ {
				began := time.Now()
				_ = sh.bare.ReadInto(q, &sh.bb)
				sh.tBare += time.Since(began)
				sh.nBare += uint64(sh.bb.Len())
				if sh.chain != nil {
					began = time.Now()
					_ = sh.chain.ReadInto(q, &sh.cb)
					sh.tChain += time.Since(began)
				}
			}
			a0 := readAllocs()
			_ = sh.bare.ReadInto(q, &sh.bb)
			sh.aBare += readAllocs().objects - a0.objects
			sh.naBare += uint64(sh.bb.Len())
			if sh.chain != nil {
				_ = sh.chain.ReadInto(q, &sh.cb) // keep the pair in lockstep
			}
		}
	})
}

// shadowCosts weights each kindspec's per-sample cost by its share of
// the fleet: the source read and what its stages add on top, in ns per
// sample, and the source's allocations per thousand samples.
func shadowCosts(shs []*shadow) (read, stages, allocs float64) {
	var tRead, tStages, n, a, na float64
	for _, sh := range shs {
		tRead += sh.weight * float64(sh.tBare)
		n += sh.weight * float64(sh.nBare)
		if sh.chain != nil {
			tStages += sh.weight * float64(sh.tChain-sh.tBare)
		}
		a += sh.weight * float64(sh.aBare)
		na += sh.weight * float64(sh.naBare)
	}
	return tRead / n, tStages / n, 1000 * a / na
}

// Runtime readings.

type allocSnap struct{ objects, bytes uint64 }

// readAllocs reads the process's cumulative heap allocations. It uses
// ReadMemStats, which flushes every P's allocation cache first: the
// runtime/metrics counters lag by whole spans, too coarse for counting
// the allocations of one call.
func readAllocs() allocSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSnap{ms.Mallocs, ms.TotalAlloc}
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func readHeap() float64 {
	metrics.Read(heapSample)
	return float64(heapSample[0].Value.Uint64())
}

type rtSnap struct {
	gcCycles      uint64
	gcCPU, allCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() rtSnap {
	metrics.Read(rtSamples)
	return rtSnap{rtSamples[0].Value.Uint64(), rtSamples[1].Value.Float64(), rtSamples[2].Value.Float64()}
}

// gcShare is the share of CPU time the collector took between a and b.
// The runtime refreshes its CPU estimates at each collection, so a span
// without one reads 0.
func gcShare(a, b rtSnap) float64 {
	if b.allCPU <= a.allCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.allCPU - a.allCPU)
}
