package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	hexec "hmem/internal/exec"
	"hmem/internal/experiments"
	"hmem/internal/service"
)

func TestMedianExact(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		report bool
	}{
		{100, 0.90, 90, true},   // 10 samples beyond rank 90
		{99, 0.90, 90, false},   // rank ceil(89.1) = 90, only 9 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false}, // rank ceil(989.01) = 990, 9 beyond
		{20, 0.5, 10, true},     // nearest rank, 10 beyond
		{3, 0.5, 2, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.report {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.report)
		}
	}
}

func TestSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{10, 12, 14, 16}
	if got := slope(xs, ys); got != 2 {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := slope([]float64{1}, []float64{5}); got != 0 {
		t.Errorf("slope of one point = %v, want 0", got)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP hmemd_result_cache_hits_total Result cache hits.
# TYPE hmemd_result_cache_hits_total counter
hmemd_result_cache_hits_total 41

hmemd_request_duration_seconds_sum{route="POST /v1/evaluate"} 0.048759481
hmemd_request_duration_seconds_count{route="POST /v1/evaluate"} 3
hmemd_request_duration_seconds_bucket{route="GET /healthz",le="+Inf"} 1
hmemd_admission_cost_budget 3.2e+01
`
	got, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := promSamples{
		"hmemd_result_cache_hits_total":                                         41,
		`hmemd_request_duration_seconds_sum{route="POST /v1/evaluate"}`:         0.048759481,
		`hmemd_request_duration_seconds_count{route="POST /v1/evaluate"}`:       3,
		`hmemd_request_duration_seconds_bucket{route="GET /healthz",le="+Inf"}`: 1,
		"hmemd_admission_cost_budget":                                           32,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	after := promSamples{"hmemd_result_cache_hits_total": 50, "new_total": 2}
	if d := delta(got, after, "hmemd_result_cache_hits_total"); d != 9 {
		t.Errorf("delta = %v, want 9", d)
	}
	if d := delta(got, after, "new_total"); d != 2 {
		t.Errorf("delta of a new series = %v, want 2", d)
	}
	for _, bad := range []string{"novalue\n", "name notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestStatusKB(t *testing.T) {
	status := "Name:\thmemd\nVmPeak:\t  900000 kB\nVmHWM:\t   16504 kB\nVmRSS:\t   12000 kB\nThreads:\t7\n"
	for field, want := range map[string]int64{"VmHWM": 16504, "VmRSS": 12000} {
		got, err := parseStatusKB(strings.NewReader(status), field)
		if err != nil || got != want {
			t.Errorf("%s = %d, %v; want %d", field, got, err, want)
		}
	}
	if _, err := parseStatusKB(strings.NewReader(status), "VmSwap"); err == nil {
		t.Error("missing field should be an error")
	}
	if _, err := parseStatusKB(strings.NewReader("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("a unit other than kB should be an error")
	}
	mb, err := peakRSSMB("self")
	if err != nil || mb <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v", mb, err)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"hmem/internal/memsim.(*Channel).serveOne":                  "hmem/internal/memsim",
		"hmem/internal/exec.Map[go.shape.struct { a.b int }].func1": "hmem/internal/exec",
		"hmem.(*Engine).Evaluate":                                   "hmem",
		"runtime.mallocgc":                                          "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":              "internal/runtime/maps",
		"encoding/json.(*encodeState).marshal":                      "encoding/json",
		"math.Log":                                                  "math",
		"main.main":                                                 "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"hmem/internal/memsim.(*Channel).serveOne", "hmem/internal/sim.RunCtx"}, "memsim"},
		{[]string{"runtime.memclrNoHeapPointers", "hmem/internal/avf.(*Tracker).ensure"}, "runtime"},
		{[]string{"math.Log", "hmem/internal/xrand.(*RNG).Float64", "hmem/internal/workload.(*Generator).Next"}, "workload"},
		{[]string{"sort.Slice", "hmem/internal/core.rankBy"}, "core"},
		{[]string{"hmem/internal/mea.(*Tracker).Observe"}, "migration"},
		{[]string{"hmem/internal/ecc.Correct", "hmem/internal/faultsim.(*Study).RunShard"}, "faultsim"},
		{[]string{"encoding/json.(*encodeState).marshal", "hmem/internal/service.writeJSON"}, "service"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"hmem/internal/report.(*Table).String"}, "other"},
		{nil, "other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// pb is a minimal protobuf writer for hand-built test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

func (b *pb) packed(field int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	b.bytesField(field, inner)
}

func TestCPUSharesFromProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"hmem/internal/memsim.(*Channel).serveOne", "hmem/internal/sim.RunCtx",
		"runtime.mallocgc", "math.Log", "hmem/internal/workload.(*Generator).Next"}
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} { // samples/count, cpu/nanoseconds
		var v pb
		v.varint(1, vt[0])
		v.varint(2, vt[1])
		p.bytesField(1, v.Bytes())
	}
	// Functions 1..4 name strings 5, 6, 7, 8; function 5 names string 9.
	for id := uint64(1); id <= 5; id++ {
		var f pb
		f.varint(1, id)
		f.varint(2, id+4)
		p.bytesField(5, f.Bytes())
	}
	// Location 10: memsim leaf; 11: sim; 12: runtime leaf; 13: math.Log
	// inlined into the workload generator (innermost line first).
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{10, []uint64{1}}, {11, []uint64{2}}, {12, []uint64{3}}, {13, []uint64{4, 5}}} {
		var l pb
		l.varint(1, loc.id)
		for _, fn := range loc.fns {
			var line pb
			line.varint(1, fn)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	for _, s := range []struct {
		locs []uint64
		ns   uint64
	}{{[]uint64{10, 11}, 60}, {[]uint64{12, 11}, 30}, {[]uint64{13, 11}, 10}} {
		var smp pb
		smp.packed(1, s.locs...)
		smp.packed(2, 1, s.ns) // the count is ignored; cpu ns weighs
		p.bytesField(2, smp.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"memsim": 0.6, "runtime": 0.3, "workload": 0.1}
	if len(shares) != len(want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	for l, v := range want {
		if math.Abs(shares[l]-v) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], v)
		}
	}
	if _, err := cpuShares(p.Bytes()[:len(p.Bytes())-3]); err == nil {
		t.Error("a truncated profile should be an error")
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that a run emits exactly the
// metrics BENCHMARK.json names, and that targets.json describes every
// workload and per-layer metric.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &spec)
	var targets struct {
		Workloads map[string]struct {
			Layers []string
		}
		PerLayer map[string]struct {
			Moves    string
			Workload string
		} `json:"per_layer"`
	}
	readJSON(t, "targets.json", &targets)

	ends := &outcome{}
	addE2E(ends, e2e{latMS: []float64{1, 2, 3}, wall: time.Second})
	ends.add("setup_s", 1, "s", 1)
	ends.add("peak_rss_mb", 1, "MB", 1)
	layers := &outcome{}
	one := e2e{latMS: []float64{1}, wall: time.Second}
	addTracingOverhead(layers, one, one)
	addSimLayers(layers, &genTimer{}, newSpanTotals(), simProbe{}, 1)
	addRunnerCounts(layers, hexec.MemoStats{}, experiments.TraceStats{})
	addCPUShares(layers, nil)
	addServiceLayers(layers, nil)

	check := func(kind string, got *outcome, declared []string) {
		var names []string
		for _, m := range got.metrics {
			if !m.extra {
				names = append(names, m.name)
			}
		}
		sort.Strings(names)
		sort.Strings(declared)
		if strings.Join(names, ",") != strings.Join(declared, ",") {
			t.Errorf("%s metrics emitted:\n  %v\nBENCHMARK.json declares:\n  %v", kind, names, declared)
		}
	}
	var declared []string
	for _, m := range spec.EndToEnd {
		declared = append(declared, m.Name)
	}
	check("end-to-end", ends, declared)
	declared = nil
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name)
		if tg, ok := targets.PerLayer[m.Name]; !ok || tg.Moves == "" || tg.Workload == "" {
			t.Errorf("targets.json does not say what %s should move", m.Name)
		}
	}
	check("per-layer", layers, declared)
	for _, w := range spec.Workloads {
		if len(targets.Workloads[w.Name].Layers) == 0 {
			t.Errorf("targets.json lists no layers for workload %s", w.Name)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestClosedLoopAgainstService drives an in-process hmemd handler from the
// closed loop's concurrent clients and checks every response against a
// fresh in-process engine, as a cold run does.
func TestClosedLoopAgainstService(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ctx := context.Background()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(ctx)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	d := &daemon{base: srv.URL}

	const n = 6
	opAt := coldSchedule(9).op
	run := newLoadRun(n)
	closedLoop(ctx, d.client(), run, opAt, n, time.Time{}, nil)
	if run.ops != n || run.failed != 0 || len(run.latMS) != n {
		t.Fatalf("ops %d, failed %d, samples %d: %v", run.ops, run.failed, len(run.latMS), run.errs)
	}
	out := &outcome{}
	if err := checkFresh(ctx, out, run, opAt, n, nil); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("hmemd and the in-process engine disagree: %v", out.problems)
	}
	first, ok := run.digest(opAt)
	if !ok {
		t.Fatal("no digest over the retained operations")
	}
	again := newLoadRun(n)
	closedLoop(ctx, d.client(), again, opAt, n, time.Time{}, nil)
	if second, _ := again.digest(opAt); second != first {
		t.Errorf("digest of the same operations changed: %q then %q", first, second)
	}
}

func TestOpsPerSecond(t *testing.T) {
	// At high rates a one-second stall (the 300) does not move the rate.
	e := e2e{latMS: make([]float64, 4300), wall: 4 * time.Second, rates: []float64{1000, 300, 1000, 1100}}
	if got, n := e.opsPerSecond(); got != 1000 || n != 4 {
		t.Errorf("opsPerSecond = %v, %d; want 1000, 4", got, n)
	}
	// At low rates, or without whole seconds, it is operations over wall time.
	e = e2e{latMS: make([]float64, 90), wall: 3 * time.Second, rates: []float64{30, 30, 30}}
	if got, n := e.opsPerSecond(); got != 30 || n != 90 {
		t.Errorf("opsPerSecond = %v, %d; want 30, 90", got, n)
	}
	e = e2e{latMS: make([]float64, 3), wall: 1500 * time.Millisecond}
	if got, n := e.opsPerSecond(); got != 2 || n != 3 {
		t.Errorf("opsPerSecond = %v, %d; want 2, 3", got, n)
	}
}
