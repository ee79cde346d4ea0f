// Tests pinning the hand-written /api/fleet codec against encoding/json:
// the encoder byte for byte, the decoder value for value, on a real mixed
// fleet, on adversarial strings and floats, and under fuzzing.

package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/fleet"
)

// mixedFleetSpec covers every station shape a leaf serves: PowerSensor3
// rigs, each software meter, derived pipeline views and faulted synthetic
// stations whose watchdog leaves them degraded, flatlined or stale.
const mixedFleetSpec = "gpu0=rtx4000ada,gpu1=w7700,soc0=jetson,ssd0=ssd," +
	"gpu0sw=nvml,gpu1sw=amdsmi,soc0ina=jetson-ina,cpu0=rapl," +
	"gpu0lo=rtx4000ada@0|resample:1000|calib:0.98:0.25,cpu0lim=rapl@5|ratelimit:100," +
	"f0=synth|dropout:0.9:300ms,f1=synth|stuck:0.9:600ms,f2=synth|spike:0.05:8," +
	"f3=synth|skew:300|jitter:1ms"

func mixedFleet(t testing.TB) *fleet.Manager {
	t.Helper()
	mgr, err := fleet.FromSpec(mixedFleetSpec, 1, fleet.Config{RingCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.StepAll(1500 * time.Millisecond)
	return mgr
}

// marshalFleet is the oracle body: what the leaf served before the
// hand-written encoder, minus the indentation.
func marshalFleet(t testing.TB, gen uint64, devs []fleet.Status) []byte {
	t.Helper()
	b, err := json.Marshal(FleetJSON{Schema: FleetSchemaVersion, Generation: gen, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// decodeBoth decodes body with DecodeFleetJSON (against prev) and with
// json.Unmarshal, failing unless both accept it with equal values.
func decodeBoth(t testing.TB, body []byte, prev []fleet.Status) FleetJSON {
	t.Helper()
	var got, want FleetJSON
	if err := DecodeFleetJSON(body, &got, prev); err != nil {
		t.Fatalf("DecodeFleetJSON: %v", err)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("json.Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeFleetJSON differs from json.Unmarshal:\n got %+v\nwant %+v", got, want)
	}
	return got
}

// TestFleetJSONMixedFleet pins both codec claims on a real mixed fleet:
// the served body is byte-identical to json.Marshal plus a newline, and
// the hand decoder agrees with encoding/json on it and on the indented
// body older leaves serve.
func TestFleetJSONMixedFleet(t *testing.T) {
	mgr := mixedFleet(t)
	devs := mgr.Snapshot()
	health := map[string]int{}
	for _, d := range devs {
		health[d.Health]++
	}
	if health[fleet.HealthHealthy] == len(devs) {
		t.Fatalf("every station healthy (%v): the faulted stations no longer exercise other health values", health)
	}

	want := marshalFleet(t, mgr.Gen(), devs)
	if got := AppendFleetJSON(nil, mgr.Gen(), devs); !bytes.Equal(got, want) {
		t.Fatalf("AppendFleetJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	// The handler serves the same bytes, twice over: the second request
	// renders into the recycled pooled state.
	srv := New(mgr).Handler()
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/fleet", nil))
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("request %d: /api/fleet body differs from json.Marshal:\n got %s\nwant %s",
				i, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
			t.Errorf("Content-Length = %q, want %d", cl, len(want))
		}
	}

	view := decodeBoth(t, want, nil)
	indented, err := json.MarshalIndent(FleetJSON{Schema: FleetSchemaVersion, Generation: mgr.Gen(), Devices: devs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	decodeBoth(t, append(indented, '\n'), view.Devices)

	// Against the previous view, unchanged strings and channel lists are
	// shared, not copied — and the previous view is left as it was.
	mgr.StepAll(200 * time.Millisecond)
	before := cloneStatuses(view.Devices)
	next := decodeBoth(t, marshalFleet(t, mgr.Gen(), mgr.Snapshot()), view.Devices)
	if !reflect.DeepEqual(view.Devices, before) {
		t.Fatal("decoding against the previous view modified it")
	}
	for i := range next.Devices {
		n, p := &next.Devices[i], &view.Devices[i]
		if unsafe.StringData(n.Name) != unsafe.StringData(p.Name) ||
			unsafe.StringData(n.Backend) != unsafe.StringData(p.Backend) {
			t.Errorf("station %s: identity strings copied instead of shared", n.Name)
		}
		if &n.Channels[0] != &p.Channels[0] {
			t.Errorf("station %s: unchanged channel list copied instead of shared", n.Name)
		}
		if &n.PairWatts[0] == &p.PairWatts[0] {
			t.Errorf("station %s: pair watts share the previous view's arena", n.Name)
		}
	}
}

// cloneStatuses deep-copies devs, keeping nil and empty slices apart.
func cloneStatuses(devs []fleet.Status) []fleet.Status {
	if devs == nil {
		return nil
	}
	out := make([]fleet.Status, len(devs))
	for i, d := range devs {
		out[i] = d
		if d.Channels != nil {
			out[i].Channels = append([]string{}, d.Channels...)
		}
		if d.PairWatts != nil {
			out[i].PairWatts = append([]float64{}, d.PairWatts...)
		}
	}
	return out
}

// TestAppendFleetJSONEdgeValues pins byte identity on the values a real
// fleet rarely produces: strings needing every escape encoding/json
// applies (HTML-unsafe bytes, controls, U+2028/9, invalid UTF-8), floats
// at and around both exponent cutoffs, and nil against empty slices.
func TestAppendFleetJSONEdgeValues(t *testing.T) {
	strs := []string{
		"", `q"uo\te`, "<a&b>", "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
		"line\u2028para\u2029", "bad\xffutf8\xc3", "\u00e9\U0001F600", "\ufffd",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7,
		1e20, 1e21, 1.5e21, -1e21, 123456789.123456, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-10, 2.5e-100,
	}
	var devs []fleet.Status
	for i, s := range strs {
		devs = append(devs, fleet.Status{
			Name: s, Kind: s, Backend: s, State: s, Health: s,
			Channels:  []string{s, "x"},
			RateHz:    floats[i%len(floats)],
			Watts:     floats[(i+3)%len(floats)],
			PairWatts: floats,
			Joules:    floats[(i+7)%len(floats)],
			Now:       time.Duration(-i) * time.Second,
			Samples:   math.MaxUint64,
			Resyncs:   math.MinInt64 + i,
		})
	}
	devs = append(devs, fleet.Status{Name: "nil slices"},
		fleet.Status{Name: "empty slices", Channels: []string{}, PairWatts: []float64{}})
	for _, gen := range []uint64{0, math.MaxUint64} {
		want := marshalFleet(t, gen, devs)
		got := AppendFleetJSON(nil, gen, devs)
		if !bytes.Equal(got, want) {
			t.Fatalf("gen %d: AppendFleetJSON differs from json.Marshal:\n got %s\nwant %s", gen, got, want)
		}
		view := decodeBoth(t, got, nil)
		decodeBoth(t, got, view.Devices)
	}
	for _, devs := range [][]fleet.Status{nil, {}} {
		if got, want := AppendFleetJSON(nil, 7, devs), marshalFleet(t, 7, devs); !bytes.Equal(got, want) {
			t.Errorf("devices %#v: got %s want %s", devs, got, want)
		}
	}
}

// TestAppendFleetJSONNonFinite pins the encoder's answer to a non-finite
// float — which json.Marshal refuses outright — as null, which both
// decoders read as 0, leaving the rest of the body intact.
func TestAppendFleetJSONNonFinite(t *testing.T) {
	devs := []fleet.Status{{
		Name: "nan0", Channels: []string{"a", "b", "c"},
		RateHz: math.Inf(1), Watts: math.NaN(), Joules: math.Inf(-1),
		PairWatts: []float64{math.NaN(), 2.5, math.Inf(1)},
		Samples:   42,
	}}
	if _, err := json.Marshal(FleetJSON{Devices: devs}); err == nil {
		t.Fatal("json.Marshal accepted NaN; the encoder's null is no longer a departure")
	}
	body := AppendFleetJSON(nil, 3, devs)
	if !bytes.Contains(body, []byte(`"rate_hz":null`)) || !bytes.Contains(body, []byte(`"watts":null`)) ||
		!bytes.Contains(body, []byte(`"pair_watts":[null,2.5,null]`)) {
		t.Fatalf("non-finite floats not written as null: %s", body)
	}
	view := decodeBoth(t, body, nil)
	d := view.Devices[0]
	if d.Watts != 0 || d.RateHz != 0 || d.Joules != 0 || !reflect.DeepEqual(d.PairWatts, []float64{0, 2.5, 0}) ||
		d.Samples != 42 || d.Name != "nan0" {
		t.Errorf("decoded non-finite station = %+v, want zeros in place of the non-finite values", d)
	}
}

// TestDecodeFleetJSONRejects covers what the decoder must refuse: every
// body encoding/json refuses, and the few it accepts but the decoder
// deliberately does not (repeated keys, case-folded keys, null entries).
func TestDecodeFleetJSONRejects(t *testing.T) {
	good := string(AppendFleetJSON(nil, 9, []fleet.Status{{Name: "a", Channels: []string{"c"}, PairWatts: []float64{1}}}))
	for _, tc := range []struct {
		body       string
		stdAccepts bool // encoding/json decodes it, the hand decoder refuses by design
	}{
		{"", false},
		{"   ", false},
		{"null", true},
		{"[]", false},
		{good[:len(good)/2], false},
		{good + "x", false},
		{good + "{}", false},
		{`{"schema":1,"schema":1}`, true},
		{`{"Schema":1}`, true},
		{`{"DEVICES":[]}`, true},
		{"{\"\u017fchema\":1}", true}, // long s folds to S
		{`{"devices":[{"name":"a","Name":"b"}]}`, true},
		{`{"devices":[{"name":"a","name":"b"}]}`, true},
		{"{\"devices\":[{\"\u212aind\":\"x\"}]}", true}, // Kelvin sign folds to k
		{`{"devices":[null]}`, true},
		{`{"schema":1.0}`, false},
		{`{"schema":1e2}`, false},
		{`{"schema":"1"}`, false},
		{`{"schema":9223372036854775808}`, false},
		{`{"generation":-1}`, false},
		{`{"generation":-0}`, false},
		{`{"generation":18446744073709551616}`, false},
		{`{"devices":[{"watts":1e400}]}`, false},
		{`{"devices":[{"watts":01}]}`, false},
		{`{"devices":[{"watts":1.}]}`, false},
		{`{"devices":[{"watts":.5}]}`, false},
		{`{"devices":[{"watts":-}]}`, false},
		{`{"devices":[{"watts":1e}]}`, false},
		{`{"devices":[{"watts":true}]}`, false},
		{`{"devices":[{"name":5}]}`, false},
		{`{"devices":[{"channels":"a"}]}`, false},
		{`{"devices":[{"channels":[1]}]}`, false},
		{`{"devices":[{"pair_watts":{}}]}`, false},
		{`{"devices":{}}`, false},
		{`{"devices":[{}],}`, false},
		{`{"devices":[{},]}`, false},
		{"{\"devices\":[{\"name\":\"a\x01\"}]}", false},
		{`{"devices":[{"name":"\x"}]}`, false},
		{`{"devices":[{"name":"\u12"}]}`, false},
		{`{"devices":[{"name":"\'"}]}`, false},
		{`{"x":[1,2,}`, false},
		{`{"x":tru}`, false},
		{`{"x":nul}`, false},
		{`{"x":{"a"}}`, false},
		{`{"x":{"a":1,}}`, false},
		{"\ufeff{}", false},
		{`{"x":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `}`, true},
	} {
		var v FleetJSON
		if err := DecodeFleetJSON([]byte(tc.body), &v, nil); err == nil {
			t.Errorf("DecodeFleetJSON(%q) accepted", tc.body)
		}
		var w FleetJSON
		if err := json.Unmarshal([]byte(tc.body), &w); (err == nil) != tc.stdAccepts {
			t.Errorf("json.Unmarshal(%q): err=%v, table says accepts=%v", tc.body, err, tc.stdAccepts)
		}
	}
	// Unknown keys, whitespace anywhere and escaped known keys decode.
	for _, body := range []string{
		`{"extra":{"a":[1,2.5e3,"s",true,false,null,{}]},"schema":1,"devices":[{"name":"a","future":[[]]}]}`,
		" \t\r\n{ \"schema\" : 1 , \"devices\" : [ { \"n\\u0061me\" : \"a\\ud83d\\ude00\\ud800\\u0041\\/\" } ] } \n",
		`{"devices":[{"name":null,"channels":[null,"x"],"pair_watts":[null,1],"watts":null}]}`,
		"{\"devices\":[{\"rate_\u212az\":1,\"kin\":2}]}", // fold to no field: unknown keys
		`{"devices":[{"now":-9223372036854775808,"samples":18446744073709551615,"watts":1e-400}]}`,
		`{"x":` + strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth) + `}`,
	} {
		view := decodeBoth(t, []byte(body), nil)
		decodeBoth(t, []byte(body), view.Devices)
	}
}

// statusesForBench builds n name-sorted stations cycling through the
// shapes of a mixed fleet, with values varying by station and by round
// so successive bodies differ the way a polled leaf's do.
func statusesForBench(n, round int) []fleet.Status {
	shapes := []struct {
		kind, backend string
		rate          float64
		channels      []string
	}{
		{"rtx4000ada", "powersensor3", 20000, []string{"slot3v3", "slot12", "pcie8pin"}},
		{"jetson", "powersensor3", 20000, []string{"usbc"}},
		{"nvml", "nvml", 10, []string{"board"}},
		{"rapl", "rapl", 1000, []string{"package"}},
		{"synth|resample:1000|calib:0.98", "synth+resample+calib", 1000, []string{"p0", "p1"}},
	}
	healths := []string{fleet.HealthHealthy, fleet.HealthHealthy, fleet.HealthHealthy, fleet.HealthDegraded}
	devs := make([]fleet.Status, n)
	for i := range devs {
		sh := shapes[i%len(shapes)]
		x := float64(i*7919+round*104729) / 997
		pw := make([]float64, len(sh.channels))
		total := 0.0
		for m := range pw {
			pw[m] = 3.2 + math.Mod(x*float64(m+1), 41.7)
			total += pw[m]
		}
		samples := uint64(round+1) * 20000
		devs[i] = fleet.Status{
			Name: fmt.Sprintf("st%05d", i), Kind: sh.kind, Backend: sh.backend,
			RateHz: sh.rate, Channels: sh.channels, Pairs: len(sh.channels),
			Now:   time.Duration(round+1) * time.Second,
			Watts: total, PairWatts: pw, Joules: total * float64(round+1) * 1.0001,
			State: "started", Samples: samples, Marks: uint64(i % 3),
			OverheadSeconds: x * 1e-7, RingLen: 4096, RingTotal: samples / 20,
			Health: healths[(i+round)%len(healths)], Gaps: uint64(i % 2),
		}
	}
	return devs
}

// TestFleetJSONAllocsFlat pins the codec's allocation counts as
// independent of fleet size: encoding into a grown buffer allocates
// nothing, a steady-state head decode (names unchanged, values moved)
// allocates its Devices slice and PairWatts arena, and the leaf handler
// a fixed few header values.
func TestFleetJSONAllocsFlat(t *testing.T) {
	var encAllocs, decAllocs []float64
	for _, n := range []int{512, 4096} {
		devs := statusesForBench(n, 0)
		buf := AppendFleetJSON(nil, 1, devs)
		encAllocs = append(encAllocs, testing.AllocsPerRun(5, func() {
			buf = AppendFleetJSON(buf[:0], 1, devs)
		}))

		var prev FleetJSON
		if err := DecodeFleetJSON(buf, &prev, nil); err != nil {
			t.Fatal(err)
		}
		next := AppendFleetJSON(nil, 2, statusesForBench(n, 1))
		var v FleetJSON
		decAllocs = append(decAllocs, testing.AllocsPerRun(5, func() {
			if err := DecodeFleetJSON(next, &v, prev.Devices); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if encAllocs[0] != 0 || encAllocs[1] != 0 {
		t.Errorf("AppendFleetJSON allocates %v at 512/4096 stations, want 0", encAllocs)
	}
	if decAllocs[0] != decAllocs[1] || decAllocs[0] > 2 {
		t.Errorf("steady-state decode allocates %v at 512/4096 stations, want the same <= 2", decAllocs)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; the handler's pooled state reallocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var handlerAllocs []float64
	for _, n := range []int{16, 128} {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "h%03d=synth,", i)
		}
		mgr, err := fleet.FromSpec(strings.TrimSuffix(sb.String(), ","), 1, fleet.Config{RingCap: 64})
		if err != nil {
			t.Fatal(err)
		}
		mgr.StepAll(10 * time.Millisecond)
		e := New(mgr)
		w := &discardWriter{h: make(http.Header, 4)}
		req, _ := http.NewRequest(http.MethodGet, "/api/fleet", nil)
		e.fleetJSON(w, req) // warm the pooled state
		handlerAllocs = append(handlerAllocs, testing.AllocsPerRun(10, func() { e.fleetJSON(w, req) }))
		mgr.Close()
	}
	if handlerAllocs[0] != handlerAllocs[1] {
		t.Errorf("/api/fleet handler allocates %v at 16/128 stations, want the same count", handlerAllocs)
	}
}

var benchBody []byte

func BenchmarkFleetJSONEncode(b *testing.B) {
	for _, n := range []int{512, 1024, 10240} {
		b.Run(fmt.Sprintf("stations-%d", n), func(b *testing.B) {
			devs := statusesForBench(n, 0)
			buf := AppendFleetJSON(nil, 1, devs)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendFleetJSON(buf[:0], 1, devs)
			}
			benchBody = buf
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/station")
		})
	}
}

var benchView FleetJSON

// BenchmarkFleetJSONDecode measures the head's steady-state decode: a
// body whose stations match the previous view by name while their
// values moved.
func BenchmarkFleetJSONDecode(b *testing.B) {
	for _, n := range []int{512, 1024, 10240} {
		b.Run(fmt.Sprintf("stations-%d", n), func(b *testing.B) {
			var prev FleetJSON
			if err := DecodeFleetJSON(AppendFleetJSON(nil, 1, statusesForBench(n, 0)), &prev, nil); err != nil {
				b.Fatal(err)
			}
			body := AppendFleetJSON(nil, 2, statusesForBench(n, 1))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeFleetJSON(body, &benchView, prev.Devices); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/station")
		})
	}
}

// FuzzDecodeFleetJSON checks the head's decoder against encoding/json on
// arbitrary bytes from a leaf: whatever it accepts, json.Unmarshal must
// accept and decode to a deeply equal value — decoding against a
// previous view included, which must come through untouched — and the
// decode's allocations stay within the body's size.
func FuzzDecodeFleetJSON(f *testing.F) {
	f.Add([]byte(`{"schema":1,"generation":2,"devices":[{"name":"a","channels":["x"],"pair_watts":[1.5]}]}`))
	f.Add([]byte(" {\n  \"schema\": 1,\n  \"devices\": [\n    {\n      \"name\": \"b\\u00e9\\ud83d\\ude00\"\n    }\n  ]\n}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		var got FleetJSON
		if err := DecodeFleetJSON(body, &got, nil); err != nil {
			return
		}
		var want FleetJSON
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("DecodeFleetJSON accepted a body json.Unmarshal refuses (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeFleetJSON differs from json.Unmarshal on %q:\n got %+v\nwant %+v", body, got, want)
		}
		pairs := 0
		for _, d := range got.Devices {
			pairs += len(d.PairWatts)
		}
		if cap(got.Devices) > len(body) || pairs > len(body) {
			t.Fatalf("%dB body decoded into %d device slots and %d pair watts", len(body), cap(got.Devices), pairs)
		}
		before := cloneStatuses(got.Devices)
		var again FleetJSON
		if err := DecodeFleetJSON(body, &again, got.Devices); err != nil {
			t.Fatalf("decoding against the previous view fails: %v", err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("decoding against the previous view differs from json.Unmarshal on %q", body)
		}
		if !reflect.DeepEqual(got.Devices, before) {
			t.Fatalf("decoding against the previous view modified it on %q", body)
		}
	})
}

// FuzzAppendFleetJSON builds stations from fuzzed strings, floats and
// counters and checks the encoder against json.Marshal byte for byte
// when every float is finite; with a non-finite one, the body must still
// decode under both decoders, to equal values.
func FuzzAppendFleetJSON(f *testing.F) {
	f.Add("gpu0", "rtx4000ada", "slot12", 20000.0, 41.25, 1e-7, uint64(20000), int64(time.Second), uint64(7), 3)
	f.Add("a<b>&\"c\\", "\u2028\x00\xff", "", math.Inf(1), math.NaN(), -0.0, uint64(math.MaxUint64), int64(math.MinInt64), uint64(0), 0)
	f.Fuzz(func(t *testing.T, name, kind, channel string, rate, watts, pw float64,
		samples uint64, now int64, gen uint64, pairs int) {
		devs := []fleet.Status{
			{
				Name: name, Kind: kind, Backend: kind + "+calib", RateHz: rate,
				Channels: []string{channel, name}, Pairs: pairs, Now: time.Duration(now),
				Watts: watts, PairWatts: []float64{pw, watts, rate}, Joules: pw * rate,
				State: "started", Samples: samples, Resyncs: pairs, Health: channel,
				OverheadSeconds: watts / 3, Restarts: samples / 3,
			},
			{Name: channel, Channels: []string{}, PairWatts: nil},
		}
		body := AppendFleetJSON(nil, gen, devs)
		finite := true
		for _, v := range []float64{rate, watts, pw, pw * rate, watts / 3} {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if finite {
			if want := marshalFleet(t, gen, devs); !bytes.Equal(body, want) {
				t.Fatalf("AppendFleetJSON differs from json.Marshal:\n got %s\nwant %s", body, want)
			}
		}
		view := decodeBoth(t, body, nil)
		decodeBoth(t, body, view.Devices)
	})
}
