package hmem

import (
	"context"
	"reflect"
	"testing"

	"hmem/internal/experiments"
)

func quickOpts() *Options {
	return &Options{RecordsPerCore: 6000, FaultTrials: 5000}
}

func TestWorkloadAndPolicyLists(t *testing.T) {
	if len(Workloads()) != 14 {
		t.Fatalf("Workloads() = %d, want 14", len(Workloads()))
	}
	if len(Benchmarks()) != 17 {
		t.Fatalf("Benchmarks() = %d, want 17", len(Benchmarks()))
	}
	if len(Policies()) != 10 {
		t.Fatalf("Policies() = %d, want 10", len(Policies()))
	}
}

func TestEvaluateUnknowns(t *testing.T) {
	if _, err := Evaluate(context.Background(), "nope", PolicyPerfFocused, quickOpts()); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Evaluate(context.Background(), "astar", PolicyName("nope"), quickOpts()); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestEvaluateDDROnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation")
	}
	res, err := Evaluate(context.Background(), "astar", PolicyDDROnly, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if res.IPCvsDDROnly < 0.999 || res.IPCvsDDROnly > 1.001 {
		t.Fatalf("DDR-only vs itself = %v", res.IPCvsDDROnly)
	}
	if res.SERvsDDROnly < 0.999 || res.SERvsDDROnly > 1.001 {
		t.Fatalf("DDR-only SER vs itself = %v", res.SERvsDDROnly)
	}
	if res.MeanAVF <= 0 || res.MeanAVF >= 1 {
		t.Fatalf("MeanAVF = %v", res.MeanAVF)
	}
}

func TestCompareSharesBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	results, err := Compare(context.Background(), "astar", []PolicyName{
		PolicyPerfFocused, PolicyWr2Ratio, PolicyCCMigration, PolicyAnnotation,
	}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	perf := results[0]
	if perf.IPCvsDDROnly <= 1 {
		t.Errorf("perf-focused should beat DDR-only: %.2fx", perf.IPCvsDDROnly)
	}
	if perf.SERvsDDROnly <= 1 {
		t.Errorf("perf-focused should raise SER: %.2fx", perf.SERvsDDROnly)
	}
	wr2 := results[1]
	if wr2.SERvsDDROnly >= perf.SERvsDDROnly {
		t.Errorf("Wr2 should lower SER vs perf-focused: %.1f vs %.1f",
			wr2.SERvsDDROnly, perf.SERvsDDROnly)
	}
	cc := results[2]
	if cc.PagesMigrated == 0 {
		t.Error("CC migration never migrated")
	}
	for _, r := range results {
		if r.Workload != "astar" {
			t.Errorf("workload mislabeled: %+v", r)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	a, err := Evaluate(context.Background(), "gcc", PolicyBalanced, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(context.Background(), "gcc", PolicyBalanced, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.SERvsDDROnly != b.SERvsDDROnly {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestEngineRequestsHoldOneTracePlan checks that Evaluate and Compare hold
// their workload's trace plan for the request: an evaluation (profiling
// run + policy run) and a three-policy Compare each generate the trace
// once, where a runner holding no plan generates it per simulation, and
// the results are identical.
func TestEngineRequestsHoldOneTracePlan(t *testing.T) {
	opts := Options{RecordsPerCore: 1500, FaultTrials: 1500}
	ctx := context.Background()
	unheld := func(workloadName string, policies []PolicyName) []Result {
		r, err := experiments.NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []Result
		for _, p := range policies {
			res, err := evaluate(ctx, r, workloadName, p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		if st := r.TraceStats(); st.Opens != uint64(1+len(policies)) {
			t.Fatalf("unheld runner generated %d traces, want %d (one per simulation)", st.Opens, 1+len(policies))
		}
		return out
	}

	e, err := NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Evaluate(ctx, "astar", PolicyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.TraceStats(); st.Opens != 1 {
		t.Fatalf("Evaluate generated %d traces, want 1", st.Opens)
	}
	if want := unheld("astar", []PolicyName{PolicyBalanced}); !reflect.DeepEqual([]Result{got}, want) {
		t.Fatalf("held Evaluate = %+v, unheld = %+v", got, want[0])
	}

	policies := []PolicyName{PolicyPerfFocused, PolicyWr2Ratio, PolicyFCMigration}
	e, err = NewEngine(&opts)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Compare(ctx, "mcf", policies)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.TraceStats(); st.Opens != 1 {
		t.Fatalf("Compare of %d policies generated %d traces, want 1", len(policies), st.Opens)
	}
	if want := unheld("mcf", policies); !reflect.DeepEqual(results, want) {
		t.Fatalf("held Compare = %+v, unheld = %+v", results, want)
	}
}
