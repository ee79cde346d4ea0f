package main

import (
	"reflect"
	"sort"
	"testing"
)

// smallOptions shrinks a workload to a 256-station fleet and three
// seconds of measuring, so every workload runs end to end in a test and
// still churns a few stations.
func smallOptions(workload string, seed uint64, trace int) options {
	return options{workload: workload, seed: seed, seconds: 3, trace: trace, stations: 256, setups: 1}
}

// Two set-ups from one seed replay identical counts: samples ingested,
// history points, scrape bytes, renders and 304s.
func TestDeterminism(t *testing.T) {
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			var counts []detCounts
			for i := 0; i < 2; i++ {
				b, err := newBench(smallOptions(name, 3, 0), wl)
				if err != nil {
					t.Fatal(err)
				}
				counts = append(counts, b.prefix())
				if b.gate.failed != 0 {
					t.Errorf("prefix failed checks: %v", b.gate.errs)
				}
				b.close()
			}
			if counts[0] != counts[1] {
				t.Fatalf("one seed, two replays: %+v vs %+v", counts[0], counts[1])
			}
			if counts[0].Samples == 0 || counts[0].ScrapeBytes == 0 {
				t.Fatalf("prefix did no work: %+v", counts[0])
			}
		})
	}
}

// Another seed gives another fleet but the same metric set, correct, in
// both the untraced and the traced run.
func TestSeedsKeepMetricSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice per mode")
	}
	for name := range workloads {
		for trace, want := range [][]metricDef{endToEnd, perLayer} {
			var sets [][]string
			for _, seed := range []uint64{1, 2} {
				res, err := run(smallOptions(name, seed, trace))
				if err != nil {
					t.Fatalf("%s seed %d trace %d: %v", name, seed, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s seed %d trace %d: %d of %d operations failed", name, seed, trace, res.Failed, res.Attempted)
				}
				var keys []string
				for k := range res.Metrics {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				sets = append(sets, keys)
			}
			if !reflect.DeepEqual(sets[0], sets[1]) || len(sets[0]) != len(want) {
				t.Errorf("%s trace %d: metric sets %v and %v, want the %d of the table", name, trace, sets[0], sets[1], len(want))
			}
		}
	}
}
