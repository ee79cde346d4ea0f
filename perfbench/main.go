// Command perfbench is the repository's closed-loop benchmark: one client
// goroutine drives a 1024-station fleet through one of three workloads
// (ingest, serve, federation), checks every answer, and prints one JSON
// result line. See README.md for the workloads, the metrics and the
// layer map.
//
//	perfbench -workload serve -seed 7 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run (-trace 0). Every workload
// reports each of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"msamples_per_s", "Msample/s"},
	{"scrape_p50_ms", "ms"},
	{"scrape_repeat_p50_ms", "ms"},
	{"energy_p50_ms", "ms"},
}

// perLayer are the metrics of the traced run (-trace 1).
var perLayer = []metricDef{
	{"source.read_ns_per_sample", "ns"},
	{"pipeline.stages_ns_per_sample", "ns"},
	{"fleet.step_ns_per_sample", "ns"},
	{"fleet.fold_ns_per_sample", "ns"},
	{"source.read_allocs_per_ksample", "count"},
	{"fleet.step_allocs_per_ksample", "count"},
	{"fleet.fold_allocs_per_ksample", "count"},
	{"fleet.add_us", "us"},
	{"fleet.remove_us", "us"},
	{"fleet.snapshot_us", "us"},
	{"history.sync_ns_per_point", "ns"},
	{"history.ring_missed", "count"},
	{"history.query_us", "us"},
	{"history.bytes_per_point", "B"},
	{"export.metrics_cold_us", "us"},
	{"export.metrics_repeat_us", "us"},
	{"export.metrics_allocs", "count"},
	{"export.metrics_bytes", "B"},
	{"export.shard_renders_per_scrape", "count"},
	{"export.shard_renders_per_repeat", "count"},
	{"export.energy_us", "us"},
	{"export.fleet_json_us", "us"},
	{"http.metrics_transport_us", "us"},
	{"http.energy_transport_us", "us"},
	{"federation.poll_us", "us"},
	{"federation.decode_us", "us"},
	{"federation.leaf_render_us", "us"},
	{"federation.assemble_us", "us"},
	{"federation.head_metrics_us", "us"},
	{"federation.not_modified_ratio", "ratio"},
	{"gc.cycles", "count"},
	{"gc.cpu_fraction", "ratio"},
	{"trace.overhead_us_per_round", "us"},
	{"trace.overhead_share", "ratio"},
	{"trace.residual_us_per_round", "us"},
	{"trace.residual_share", "ratio"},
	{"e2e.rounds", "count"},
	{"e2e.scrape_n", "count"},
	{"e2e.scrape_p99_ms", "ms"},
	{"e2e.energy_n", "count"},
	{"e2e.energy_p99_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// A 1024-station fleet, set up three times: setup_s is the median.
	// Tests shrink both through the options struct.
	o := options{stations: 1024, setups: 3}
	flag.StringVar(&o.workload, "workload", "", "workload: ingest, serve or federation")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated fleet and request sequence")
	flag.IntVar(&o.seconds, "seconds", 15, "wall seconds the measured loop runs")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced loop and prints per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory the span trace is written to (traced runs)")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	stations int
	setups   int
	out      string
}

// run builds the workload o.setups times — timing each set-up and
// checking that each replays the same counts over a fixed prefix of
// rounds — then measures the last build for o.seconds and reports.
func run(o options) (*result, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if o.setups < 1 || o.stations < 16 {
		return nil, fmt.Errorf("%d set-ups of %d stations: want at least 1 of at least 16", o.setups, o.stations)
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("-workload %q: want ingest, serve or federation", o.workload)
	}
	var (
		b        *bench
		setupS   []float64
		firstDet detCounts
	)
	for i := 0; i < o.setups; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		began := time.Now()
		nb, err := newBench(o, wl)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(began).Seconds())
		b = nb
		det := b.prefix()
		if i == 0 {
			firstDet = det
		} else {
			var err error
			if det != firstDet {
				err = fmt.Errorf("determinism: set-up %d replayed %+v, set-up 1 replayed %+v", i+1, det, firstDet)
			}
			b.gate.check(err)
		}
	}
	defer b.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: prefix counts %+v\n", o.workload, o.seed, firstDet)

	if o.trace == 1 {
		if err := b.enableTracing(); err != nil {
			return nil, fmt.Errorf("tracing set-up: %w", err)
		}
	}
	b.measure(time.Duration(o.seconds) * time.Second)
	b.finalChecks()

	res := &result{
		Correct:   b.gate.failed == 0,
		Attempted: b.gate.attempted,
		Failed:    b.gate.failed,
		Metrics:   map[string]metricValue{},
	}
	if o.trace == 0 {
		b.endToEnd(res, median(setupS))
	} else {
		b.perLayer(res)
		if o.out != "" {
			path := filepath.Join(o.out, fmt.Sprintf("trace_%s_seed%d.jsonl", o.workload, o.seed))
			if err := b.tr.write(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
		}
	}
	want := endToEnd
	if o.trace == 1 {
		want = perLayer
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", m.name, v.Value)
		}
		if err := checkName(m.name); err != nil {
			return nil, err
		}
		if err := checkUnit(v.Unit); err != nil {
			return nil, err
		}
		if v.Unit != m.unit {
			return nil, fmt.Errorf("metric %s: unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, e := range b.gate.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	return res, nil
}

// gate counts every checked operation and every failure.
type gate struct {
	attempted, failed int
	errs              []string
}

// check counts one operation, failing it when err is non-nil.
func (g *gate) check(err error) {
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.errs) < 20 {
			g.errs = append(g.errs, err.Error())
		}
	}
}
