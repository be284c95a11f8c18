package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: hmem/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkPageTableIntern-8   	33243339	         3.595 ns/op	       0 B/op	       0 allocs/op
BenchmarkFullCountersObserve 	39002168	         3.296 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	hmem/internal/core	0.579s
pkg: hmem/internal/migration
BenchmarkMigratorDecide/cross-counter-8         	    2193	     26056 ns/op	     173 B/op	       4 allocs/op
ok  	hmem/internal/migration	0.245s
pkg: hmem/internal/experiments
| workload | ipc |
Benchmark row that is actually a table line
BenchmarkSuitePass 	       1	 2218986656 ns/op	748290376 B/op	   779306 allocs/op
ok  	hmem/internal/experiments	2.223s
`

func TestParse(t *testing.T) {
	run, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if run.CPU != "Intel(R) Xeon(R) Processor @ 2.70GHz" {
		t.Errorf("cpu = %q", run.CPU)
	}
	want := map[string]Result{
		"hmem/internal/core.BenchmarkPageTableIntern":                   {NsPerOp: 3.595},
		"hmem/internal/core.BenchmarkFullCountersObserve":               {NsPerOp: 3.296},
		"hmem/internal/migration.BenchmarkMigratorDecide/cross-counter": {NsPerOp: 26056, AllocsPerOp: 4},
		"hmem/internal/experiments.BenchmarkSuitePass":                  {NsPerOp: 2218986656, AllocsPerOp: 779306},
	}
	if len(run.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(run.Benchmarks), len(want), run.Benchmarks)
	}
	for name, w := range want {
		got, ok := run.Benchmarks[name]
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		if got != w {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}
}

func TestParseStripsMaxprocsButKeepsSubBench(t *testing.T) {
	out := "pkg: p\nBenchmarkA/sub-case-16 10 5.0 ns/op\n"
	run, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := run.Benchmarks["p.BenchmarkA/sub-case"]; !ok {
		t.Fatalf("keys = %v, want p.BenchmarkA/sub-case", run.Benchmarks)
	}
}

// series builds one side's pair-indexed results for benchmark name from
// per-pair ns/op values, all at the given allocs/op.
func series(name string, allocs int64, ns ...float64) []map[string]Result {
	out := make([]map[string]Result, len(ns))
	for i, v := range ns {
		out[i] = map[string]Result{name: {NsPerOp: v, AllocsPerOp: allocs}}
	}
	return out
}

// scaled returns base's ns/op values multiplied pair by pair by factors.
func scaled(base []float64, factors ...float64) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		out[i] = base[i] * factors[i]
	}
	return out
}

// baseNs is a realistic base series: a ~45 ns benchmark on a loaded host.
var baseNs = []float64{44, 47, 43, 52, 45, 61, 44, 46, 49, 43}

// TestDecideAAPassesDespiteSwings: identical code whose single pairs swing
// by up to ±40% (0.64x–1.44x, as measured on a loaded 2-core host) has a
// median ratio near 1 and passes.
func TestDecideAAPassesDespiteSwings(t *testing.T) {
	const name = "hmem/internal/sim.BenchmarkPerAccessPath"
	head := scaled(baseNs, 0.64, 1.44, 1.02, 0.97, 1.38, 0.71, 1.05, 0.96, 1.01, 0.99)
	verdicts, oneSided := decide(series(name, 0, baseNs...), series(name, 0, head...))
	if len(verdicts) != 1 || len(oneSided) != 0 {
		t.Fatalf("verdicts = %+v, one-sided = %v", verdicts, oneSided)
	}
	if v := verdicts[0]; len(v.Failures) != 0 || v.Ratio < 0.95 || v.Ratio > 1.05 {
		t.Fatalf("A/A verdict = %+v, want a pass near ratio 1", v)
	}
}

// TestDecidePlantedSlowdownFails: a benchmark 20% slower in every pair,
// give or take the same noise, fails and the failure names it.
func TestDecidePlantedSlowdownFails(t *testing.T) {
	const slow = "hmem/internal/sim.BenchmarkPerAccessPath"
	const same = "hmem/internal/core.BenchmarkPageTableIntern"
	base := series(slow, 0, baseNs...)
	head := series(slow, 0, scaled(baseNs, 1.2, 1.5, 1.18, 0.95, 1.25, 1.22, 1.19, 1.3, 1.21, 0.9)...)
	for i := range base {
		base[i][same] = Result{NsPerOp: 3.6}
		head[i][same] = Result{NsPerOp: 3.6}
	}
	verdicts, _ := decide(base, head)
	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %+v, want 2", verdicts)
	}
	if v := verdicts[0]; v.Name != same || len(v.Failures) != 0 {
		t.Fatalf("unchanged benchmark verdict = %+v, want a pass", v)
	}
	v := verdicts[1]
	if len(v.Failures) != 1 || !strings.Contains(v.Failures[0], "BenchmarkPerAccessPath") || !strings.Contains(v.Failures[0], "ns/op") {
		t.Fatalf("slowed benchmark verdict = %+v, want one ns/op failure naming it", v)
	}
}

// TestDecideAllocs: one new allocation on a zero-alloc benchmark fails
// however fast it runs; benchmarks that allocate keep a half-percent slack.
func TestDecideAllocs(t *testing.T) {
	const name = "hmem/internal/core.BenchmarkFullCountersObserve"
	verdicts, _ := decide(series(name, 0, baseNs...), series(name, 1, scaled(baseNs, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)...))
	if v := verdicts[0]; len(v.Failures) != 1 || !strings.Contains(v.Failures[0], "allocs/op 0 → 1") {
		t.Fatalf("0 → 1 allocs/op verdict = %+v, want one allocs failure", v)
	}

	const macro = "hmem/internal/experiments.BenchmarkSuitePass"
	if verdicts, _ := decide(series(macro, 1_000_000, baseNs...), series(macro, 1_000_100, baseNs...)); len(verdicts[0].Failures) != 0 {
		t.Fatalf("jitter-sized allocs/op rise failed: %+v", verdicts[0])
	}
	if verdicts, _ := decide(series(macro, 1_000_000, baseNs...), series(macro, 1_010_000, baseNs...)); len(verdicts[0].Failures) != 1 {
		t.Fatalf("1%% allocs/op rise passed: %+v", verdicts[0])
	}
}

// TestDecideOneSidedIsReportedNotGated: a benchmark measured on one side
// only (added or removed by the change) is listed, never failed.
func TestDecideOneSidedIsReportedNotGated(t *testing.T) {
	const kept = "hmem/internal/ecc.BenchmarkEncodeSECDED"
	base := series(kept, 0, baseNs...)
	head := series(kept, 0, baseNs...)
	for i := range head {
		head[i]["hmem/internal/ecc.BenchmarkNew"] = Result{NsPerOp: 1e9, AllocsPerOp: 100}
		base[i]["hmem/internal/ecc.BenchmarkGone"] = Result{NsPerOp: 1}
	}
	verdicts, oneSided := decide(base, head)
	if len(verdicts) != 1 || verdicts[0].Name != kept || len(verdicts[0].Failures) != 0 {
		t.Fatalf("verdicts = %+v, want only %s, passing", verdicts, kept)
	}
	want := []string{"hmem/internal/ecc.BenchmarkGone", "hmem/internal/ecc.BenchmarkNew"}
	if strings.Join(oneSided, ",") != strings.Join(want, ",") {
		t.Fatalf("one-sided = %v, want %v", oneSided, want)
	}
}
