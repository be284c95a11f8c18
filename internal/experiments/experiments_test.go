package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hmem/internal/core"
	"hmem/internal/faultsim"
	"hmem/internal/report"
	"hmem/internal/sim"
	"hmem/internal/workload"
)

// testRunner returns a runner over a reduced workload set (one
// latency-bound, one bandwidth-bound, one mix) with short traces, shared by
// the whole test file through memoization.
var sharedTestRunner *Runner

func testRunner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment drivers run full simulations")
	}
	if sharedTestRunner == nil {
		opts := DefaultOptions()
		opts.Workloads = []string{"astar", "mcf", "mix1"}
		opts.RecordsPerCore = 15000
		sharedTestRunner = mustRunner(t, opts)
	}
	return sharedTestRunner
}

func mustRunner(t *testing.T, opts Options) *Runner {
	t.Helper()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// cell parses a numeric table cell like "1.63x", "12.5%", or "42".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

// lastRow returns the table's final row (the average row for policy tables).
func lastRow(t *testing.T, tab *report.Table) []string {
	t.Helper()
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	return tab.Rows[len(tab.Rows)-1]
}

func TestRunnerDefaults(t *testing.T) {
	r := mustRunner(t, Options{})
	o := r.Options()
	d := DefaultOptions()
	if o.ScaleDiv != d.ScaleDiv || o.RecordsPerCore != d.RecordsPerCore ||
		o.FCIntervalCycles != d.FCIntervalCycles || o.MEAIntervalCycles != d.MEAIntervalCycles {
		t.Fatalf("zero options did not resolve to defaults: %+v", o)
	}
	if len(r.Workloads()) != 14 {
		t.Fatalf("default workloads = %d, want 14", len(r.Workloads()))
	}
}

func TestByID(t *testing.T) {
	r := mustRunner(t, Options{})
	if len(r.All()) != 23 {
		t.Fatalf("experiment count = %d, want 23", len(r.All()))
	}
	if _, ok := r.ByID("figure5"); !ok {
		t.Fatal("figure5 missing")
	}
	if _, ok := r.ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestFitsPlausible(t *testing.T) {
	r := mustRunner(t, Options{FaultTrials: 5000})
	fits, err := r.Fits(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ratio := fits.Of(r.Topology().FastTier) / fits.Of(0); ratio < 50 || ratio > 5000 {
		t.Fatalf("tier FIT ratio %.0f implausible", ratio)
	}
	// Memoized: second call is identical.
	again, err := r.Fits(context.Background())
	if err != nil || !reflect.DeepEqual(again, fits) {
		t.Fatal("Fits not memoized")
	}
}

func TestFigure1FrontierShape(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Figure1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("fraction sweep rows = %d, want 9", len(tab.Rows))
	}
	// More hot pages in HBM: IPC and SER both grow monotonically (allowing
	// small simulation noise on IPC).
	firstIPC := cell(t, tab.Rows[0][1])
	lastIPC := cell(t, lastRow(t, tab)[1])
	firstSER := cell(t, tab.Rows[0][2])
	lastSER := cell(t, lastRow(t, tab)[2])
	if !(lastIPC > firstIPC) {
		t.Errorf("IPC not increasing across sweep: %v -> %v", firstIPC, lastIPC)
	}
	if !(lastSER > 10*firstSER) {
		t.Errorf("SER should explode across sweep: %v -> %v", firstSER, lastSER)
	}
}

func TestFigure2SortedAscending(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Figure2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range tab.Rows {
		v := cell(t, row[1])
		if v < prev {
			t.Fatalf("Figure 2 not ascending at %v", row)
		}
		prev = v
	}
}

func TestFigure4QuadrantsSumToOne(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		sum := cell(t, row[1]) + cell(t, row[2]) + cell(t, row[3]) + cell(t, row[4])
		if sum < 99.0 || sum > 101.0 {
			t.Errorf("%s: quadrants sum to %.1f%%", row[0], sum)
		}
	}
}

func TestFigure5HeadlineShape(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Figure5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	avg := lastRow(t, tab)
	ipc := cell(t, avg[1])
	ser := cell(t, avg[2])
	if ipc < 1.2 || ipc > 4.0 {
		t.Errorf("perf-focused IPC gain = %.2fx, want 1.2-4 (paper: 1.6x)", ipc)
	}
	if ser < 20 {
		t.Errorf("perf-focused SER blowup = %.0fx, want >> 20 (paper: 287x)", ser)
	}
}

func TestStaticPolicyOrderings(t *testing.T) {
	r := testRunner(t)
	ordered, err := r.byMPKIDesc(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	avgFor := func(p core.Policy) policyRow {
		rows, err := r.staticComparison(context.Background(), p, ordered)
		if err != nil {
			t.Fatal(err)
		}
		return avgRow(rows)
	}
	rel := avgFor(core.ReliabilityFocused{})
	bal := avgFor(core.Balanced{})
	wr := avgFor(core.WrRatio{})
	wr2 := avgFor(core.Wr2Ratio{})

	// Every reliability-aware static reduces SER versus perf-focused...
	for name, row := range map[string]policyRow{"rel": rel, "bal": bal, "wr": wr, "wr2": wr2} {
		if row.SERvsPerf >= 1 {
			t.Errorf("%s: SER vs perf = %.2f, want < 1", name, row.SERvsPerf)
		}
		if row.IPCvsPerf > 1.02 {
			t.Errorf("%s: IPC vs perf = %.2f, cannot beat the perf oracle", name, row.IPCvsPerf)
		}
	}
	// ...and the paper's key trade-off holds: Wr2 keeps the most
	// performance of all reliability-aware statics while reducing SER least.
	if !(wr2.IPCvsPerf > wr.IPCvsPerf && wr2.IPCvsPerf > rel.IPCvsPerf) {
		t.Errorf("Wr2 should be the cheapest heuristic: wr2=%.2f wr=%.2f rel=%.2f",
			wr2.IPCvsPerf, wr.IPCvsPerf, rel.IPCvsPerf)
	}
	if !(rel.SERvsPerf < wr2.SERvsPerf && bal.SERvsPerf < wr2.SERvsPerf) {
		t.Errorf("conservative policies should cut SER more than Wr2: rel=%.3f bal=%.3f wr2=%.3f",
			rel.SERvsPerf, bal.SERvsPerf, wr2.SERvsPerf)
	}
}

func TestFigure6And9Correlations(t *testing.T) {
	r := testRunner(t)
	f6, err := r.Figure6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 10 {
		t.Fatalf("Figure 6 buckets = %d", len(f6.Rows))
	}
	// The hottest bucket must be hotter than the last.
	if !(cell(t, f6.Rows[0][1]) > cell(t, f6.Rows[9][1])) {
		t.Error("Figure 6 buckets not ordered by hotness")
	}
	f9, err := r.Figure9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f9.Note, "-") {
		t.Errorf("Figure 9 correlation should be negative: %q", f9.Note)
	}
	total := 0
	for _, row := range f9.Rows {
		total += int(cell(t, row[1]))
	}
	if total == 0 {
		t.Error("Figure 9 histogram empty")
	}
}

func TestDynamicMechanismShapes(t *testing.T) {
	r := testRunner(t)
	f12, err := r.Figure12(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	avg12 := lastRow(t, f12)
	if ipc := cell(t, avg12[1]); ipc <= 1 {
		t.Errorf("perf migration should beat DDR-only: %.2fx", ipc)
	}

	f14, err := r.Figure14(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fcSER := cell(t, lastRow(t, f14)[2])
	if fcSER >= 1 {
		t.Errorf("FC mechanism should reduce SER vs perf migration: %.2f", fcSER)
	}

	f15, err := r.Figure15(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ccSER := cell(t, lastRow(t, f15)[2])
	if ccSER > 1.1 {
		t.Errorf("CC mechanism should not increase SER vs perf migration: %.2f", ccSER)
	}
	// The paper's cost hierarchy: CC trades some of FC's SER reduction for
	// cheaper hardware.
	if !(fcSER < ccSER) {
		t.Errorf("FC should reduce SER more than CC: fc=%.2f cc=%.2f", fcSER, ccSER)
	}
}

func TestFigure13SweepHasInteriorOptimum(t *testing.T) {
	r := testRunner(t)
	tab, err := r.Figure13(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("sweep rows = %d, want 6", len(tab.Rows))
	}
	if !strings.Contains(tab.Note, "best interval") {
		t.Error("sweep must identify a best interval")
	}
}

func TestAnnotationExperiments(t *testing.T) {
	r := testRunner(t)
	f16, err := r.Figure16(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ser := cell(t, lastRow(t, f16)[2]); ser >= 1 {
		t.Errorf("annotations should reduce SER vs perf-focused: %.2f", ser)
	}
	f17, err := r.Figure17(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f17.Rows {
		n := cell(t, row[1])
		if n < 1 || n > 60 {
			t.Errorf("%s: %v annotations implausible", row[0], n)
		}
	}
}

func TestTablesRender(t *testing.T) {
	r := testRunner(t)
	t1 := r.Table1()
	if !strings.Contains(t1.String(), "HBM") || !strings.Contains(t1.String(), "DDR3") {
		t.Error("Table 1 missing tiers")
	}
	t2 := r.Table2()
	if len(t2.Rows) != 5 {
		t.Errorf("Table 2 rows = %d, want 5 mixes", len(t2.Rows))
	}
	hw := r.TableHardwareCost()
	if !strings.Contains(hw.String(), "676") && !strings.Contains(hw.String(), "692224") {
		t.Error("hardware-cost table missing the 676 KB figure")
	}
	t3, err := r.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 7 {
		t.Errorf("Table 3 rows = %d, want 7 schemes", len(t3.Rows))
	}
	var buf bytes.Buffer
	if err := t3.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scheme") {
		t.Error("CSV missing header")
	}
}

func TestMPKIOrderingStable(t *testing.T) {
	r := testRunner(t)
	a, err := r.byMPKIDesc(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.byMPKIDesc(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("MPKI ordering not deterministic")
		}
	}
	// mcf (bandwidth hog) must come before astar (latency-bound).
	pos := map[string]int{}
	for i, s := range a {
		pos[s.Name] = i
	}
	if pos["mcf"] > pos["astar"] {
		t.Errorf("MPKI ordering wrong: mcf at %d, astar at %d", pos["mcf"], pos["astar"])
	}
}

func TestNewRunnerRejectsUnknownWorkload(t *testing.T) {
	_, err := NewRunner(Options{Workloads: []string{"astar", "not-a-workload"}})
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	// The error is actionable: names the bad input and lists valid names.
	msg := err.Error()
	for _, want := range []string{"not-a-workload", "astar", "mix1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestSEROfZeroBaselineIsAnError(t *testing.T) {
	r := mustRunner(t, Options{})
	// Pre-seed the fault-study memo with a degenerate all-zero result so
	// SEROf's baseline SER comes out zero without running a fault study.
	if _, err := r.fits.Do(struct{}{}, func() (faultsim.TierFITs, error) {
		return faultsim.TierFITs{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := r.SEROf(context.Background(), sim.Result{})
	if !errors.Is(err, ErrZeroBaselineSER) {
		t.Fatalf("err = %v, want ErrZeroBaselineSER", err)
	}
}

func TestSEROfUsesAllDDRBaseline(t *testing.T) {
	r := testRunner(t)
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := r.ProfileOf(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	_, rel, err := r.SEROf(context.Background(), prof.Result)
	if err != nil {
		t.Fatal(err)
	}
	// A DDR-only run is its own baseline: relative SER exactly 1.
	if rel < 0.999 || rel > 1.001 {
		t.Fatalf("DDR-only relative SER = %v, want 1", rel)
	}
}

func TestAblationCCShape(t *testing.T) {
	r := testRunner(t)
	tab, err := r.AblationCC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("ablation rows = %d, want 4 variants", len(tab.Rows))
	}
	serOf := map[string]float64{}
	for _, row := range tab.Rows {
		serOf[row[0]] = cell(t, row[2])
	}
	// The blacklist is the SER lever: disabling it must not improve SER.
	if serOf["cc -blacklist"] < serOf["cc (full)"] {
		t.Errorf("blacklist-off SER %.2f better than full CC %.2f",
			serOf["cc -blacklist"], serOf["cc (full)"])
	}
}

func TestExtensionAnnotatedMigrationShape(t *testing.T) {
	r := testRunner(t)
	tab, err := r.ExtensionAnnotatedMigration(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One row per workload plus the average row.
	if len(tab.Rows) != len(r.Workloads())+1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	avg := lastRow(t, tab)
	for col := 1; col <= 6; col++ {
		v := cell(t, avg[col])
		if v <= 0 {
			t.Fatalf("column %d non-positive: %v", col, v)
		}
	}
	// All three schemes must reduce SER versus the perf oracle.
	for _, col := range []int{2, 4, 6} {
		if v := cell(t, avg[col]); v >= 1 {
			t.Errorf("column %d SER = %.2f, want < 1", col, v)
		}
	}
}

func TestExperimentTablesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	// Two independent runners over the same options must regenerate
	// byte-identical tables (the repository's determinism invariant,
	// end to end).
	build := func() string {
		opts := DefaultOptions()
		opts.Workloads = []string{"astar"}
		opts.RecordsPerCore = 8000
		r := mustRunner(t, opts)
		tab, err := r.Figure5(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("nondeterministic experiment output:\n%s\nvs\n%s", a, b)
	}
}
