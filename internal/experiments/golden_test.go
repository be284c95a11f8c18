package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"hmem/internal/exec"
	"hmem/internal/xrand"
)

// goldenPath is the suite reference the benchmark in perfbench checks its
// passes against. This test reads the same file in place, so the benchmark
// and tier-1 cannot disagree about what "correct" means; perfbench's
// -update-ref is its only writer.
const goldenPath = "../../perfbench/reference/suite-seed2018.txt"

// raceSubset is the fixed subset of experiments the golden test runs under
// the race detector, where the whole suite is about ten times slower: the
// static tables, a profiled static placement figure, a migration figure,
// and the three-tier extension.
var raceSubset = []string{"table1", "figure2", "figure5", "figure12", "extension-tiered-endurance"}

// goldenOptions are perfbench's suite options at its held-out seed 2018:
// 2,000 records per core, the suite salt (1), two workers.
func goldenOptions() Options {
	return Options{RecordsPerCore: 2000, Seed: xrand.Derive(2018, 1) | 1, Parallel: 2}
}

// suitePass runs the experiments with the given ids on a fresh runner the
// way perfbench does — on one worker pool, results in paper order — and
// joins them as "== <id>\n<table>\n".
func suitePass(tb testing.TB, opts Options, ids []string) string {
	tb.Helper()
	r, err := NewRunner(opts)
	if err != nil {
		tb.Fatal(err)
	}
	var runs []Named
	for _, n := range r.All() {
		for _, id := range ids {
			if n.ID == id {
				runs = append(runs, n)
			}
		}
	}
	if len(runs) != len(ids) {
		tb.Fatalf("found %d of experiments %v", len(runs), ids)
	}
	ctx := context.Background()
	tables, err := exec.Map(ctx, opts.Parallel, len(runs), func(i int) (string, error) {
		t, err := runs[i].Run(ctx)
		if err != nil {
			return "", err
		}
		return "== " + runs[i].ID + "\n" + t.String() + "\n", nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return strings.Join(tables, "")
}

// goldenSections splits the reference into its per-experiment sections,
// found by their "== <id>\n" headers in paper order.
func goldenSections(t *testing.T, ref string, ids []string) map[string]string {
	t.Helper()
	starts := make([]int, len(ids)+1)
	from := 0
	for i, id := range ids {
		at := strings.Index(ref[from:], "== "+id+"\n")
		if at < 0 {
			t.Fatalf("%s: no section for %q after byte %d", goldenPath, id, from)
		}
		starts[i] = from + at
		from = starts[i] + 1
	}
	starts[len(ids)] = len(ref)
	out := make(map[string]string, len(ids))
	for i, id := range ids {
		out[id] = ref[starts[i]:starts[i+1]]
	}
	return out
}

// TestPaperTablesGolden pins every paper table and figure byte for byte.
// Any change to a simulator layer that moves a number fails here.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	ref := string(raw)
	all := make([]string, len(drivers))
	for i, d := range drivers {
		all[i] = d.id
	}
	ids := all
	if raceEnabled {
		ids = raceSubset
	}
	sections := goldenSections(t, ref, all)
	var want strings.Builder
	for _, id := range ids {
		want.WriteString(sections[id])
	}
	got := suitePass(t, goldenOptions(), ids)
	if got == want.String() {
		return
	}
	gotSections := goldenSections(t, got, ids)
	for _, id := range ids {
		if gotSections[id] != sections[id] {
			t.Errorf("%s differs from %s:\n--- want ---\n%s--- got ---\n%s", id, goldenPath, sections[id], gotSections[id])
		}
	}
	if !t.Failed() {
		t.Fatalf("suite output differs from %s outside the experiment sections", goldenPath)
	}
}

// BenchmarkSuitePass is one full pass of all experiments at the golden's
// options on a fresh runner; -benchmem gives the bytes and allocations a
// pass costs.
func BenchmarkSuitePass(b *testing.B) {
	ids := make([]string, len(drivers))
	for i, d := range drivers {
		ids[i] = d.id
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suitePass(b, goldenOptions(), ids)
	}
}
