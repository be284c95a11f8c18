package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// tinyCoalesceOpts keeps plan tests fast: short traces, few trials.
func tinyCoalesceOpts() Options {
	return Options{RecordsPerCore: 1500, FaultTrials: 1500}
}

// TestTracePlanCoalesces is the plan's core contract: with a plan held, K
// policy runs of one workload cost exactly one trace generation, and the
// results are bit-identical to an uncoalesced runner's.
func TestTracePlanCoalesces(t *testing.T) {
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	policies := []core.Policy{core.PerfFocused{}, core.Balanced{}, core.Wr2Ratio{}}
	ctx := context.Background()

	run := func(r *Runner) []interface{} {
		var out []interface{}
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, prof.Result)
		for _, p := range policies {
			res, err := r.RunStatic(ctx, spec, p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}

	coalesced := mustRunner(t, tinyCoalesceOpts())
	release, err := coalesced.AcquireTracePlan(ctx, "astar")
	if err != nil {
		t.Fatal(err)
	}
	gotCoalesced := run(coalesced)
	st := coalesced.TraceStats()
	if st.Opens != 1 {
		t.Fatalf("coalesced run opened the trace %d times, want exactly 1 (materialization)", st.Opens)
	}
	// One profile build plus one build per static run, all served as replays.
	if want := uint64(1 + len(policies)); st.CoalesceHits != want {
		t.Fatalf("coalesce hits = %d, want %d", st.CoalesceHits, want)
	}
	release()
	release() // idempotent

	// After release the plan is gone: the next simulation regenerates.
	if _, err := coalesced.buildSuite(spec); err != nil {
		t.Fatal(err)
	}
	if st := coalesced.TraceStats(); st.Opens != 2 {
		t.Fatalf("post-release build opened %d traces total, want 2", st.Opens)
	}

	plain := mustRunner(t, tinyCoalesceOpts())
	gotPlain := run(plain)
	if st := plain.TraceStats(); st.CoalesceHits != 0 {
		t.Fatalf("uncoalesced runner recorded %d coalesce hits", st.CoalesceHits)
	}
	if !reflect.DeepEqual(gotCoalesced, gotPlain) {
		t.Fatal("coalesced results differ from uncoalesced results")
	}
}

// TestTracePlanNestedAcquire checks lazy, refcounted plans: a hold
// generates nothing, the first consumer generates once, both holders share
// that one plan, and it stays live until the last holder releases.
func TestTracePlanNestedAcquire(t *testing.T) {
	r := mustRunner(t, tinyCoalesceOpts())
	ctx := context.Background()
	spec, err := workload.SpecByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	rel1, err := r.AcquireTracePlan(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := r.AcquireTracePlan(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if st := r.TraceStats(); st.Opens != 0 {
		t.Fatalf("holding generated %d traces, want 0 before any consumer", st.Opens)
	}
	shared := r.heldPlan("mcf")
	if shared == nil {
		t.Fatal("no plan registered after two acquires")
	}
	if _, err := r.buildSuite(spec); err != nil {
		t.Fatal(err)
	}
	if st := r.TraceStats(); st.Opens != 1 {
		t.Fatalf("first consumer generated %d traces, want 1", st.Opens)
	}
	rel1()
	if r.heldPlan("mcf") != shared {
		t.Fatal("plan retired while still held by the second acquirer")
	}
	if _, err := r.buildSuite(spec); err != nil {
		t.Fatal(err)
	}
	if st := r.TraceStats(); st.Opens != 1 || st.CoalesceHits != 2 {
		t.Fatalf("after the second consumer: %+v, want 1 open and 2 coalesce hits", st)
	}
	rel2()
	if r.heldPlan("mcf") != nil {
		t.Fatal("plan still held after the last release")
	}
}

// TestTracePlanUnknownWorkload rejects bad names before materializing.
func TestTracePlanUnknownWorkload(t *testing.T) {
	r := mustRunner(t, tinyCoalesceOpts())
	if _, err := r.AcquireTracePlan(context.Background(), "no-such-workload"); err == nil {
		t.Fatal("expected an error for an unknown workload")
	}
}

// TestTraceWrapSelectsWorkload proves the wrap seam is keyed by workload:
// wrapping one workload's streams with a failing reader fails only that
// workload's runs.
func TestTraceWrapSelectsWorkload(t *testing.T) {
	r := mustRunner(t, tinyCoalesceOpts())
	injected := errors.New("injected trace fault")
	r.SetTraceWrap(func(name string, s trace.Stream) trace.Stream {
		if name == "mcf" {
			return failingStream{err: injected}
		}
		return s
	})
	ctx := context.Background()
	mcf, _ := workload.SpecByName("mcf")
	if _, err := r.ProfileOf(ctx, mcf); !errors.Is(err, injected) {
		t.Fatalf("wrapped workload error = %v, want the injected fault", err)
	}
	astar, _ := workload.SpecByName("astar")
	if _, err := r.ProfileOf(ctx, astar); err != nil {
		t.Fatalf("unwrapped workload failed: %v", err)
	}
}

type failingStream struct{ err error }

func (f failingStream) Next() (trace.Record, error) { return trace.Record{}, f.err }

// TestCoalescedReplayZeroAllocs is the AllocsPerRun gate: replaying a
// materialized plan through a SliceStream view adds zero allocations per
// access — the coalesced inner loop is as lean as the generator path.
func TestCoalescedReplayZeroAllocs(t *testing.T) {
	spec, err := workload.SpecByName("astar")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := spec.Build(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(suite.Generators[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := trace.NewSliceStream(recs)
	allocs := testing.AllocsPerRun(10, func() {
		stream.Reset()
		for {
			if _, err := stream.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("coalesced replay allocates %.1f per full pass, want 0", allocs)
	}
}

// planHolders reports how many holds the workload's plan has (0 when none).
func (r *Runner) planHolders(name string) int {
	r.plansMu.Lock()
	defer r.plansMu.Unlock()
	if p := r.plans[name]; p != nil {
		return p.refs
	}
	return 0
}

// TestTracePlanConcurrentFirstConsumers races many first consumers of one
// held plan: exactly one generates, every consumer replays the same
// records, and the replays match a fresh generator's output.
func TestTracePlanConcurrentFirstConsumers(t *testing.T) {
	r := mustRunner(t, tinyCoalesceOpts())
	spec, err := workload.SpecByName("mix1")
	if err != nil {
		t.Fatal(err)
	}
	release, err := r.AcquireTracePlan(context.Background(), spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	const consumers = 8
	views := make([][][]trace.Record, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := r.buildSuite(spec)
			if err != nil {
				t.Error(err)
				return
			}
			for _, s := range v.streams {
				recs, err := trace.Collect(s, 0)
				if err != nil {
					t.Error(err)
					return
				}
				views[i] = append(views[i], recs)
			}
		}(i)
	}
	wg.Wait()
	if st := r.TraceStats(); st.Opens != 1 || st.CoalesceHits != consumers {
		t.Fatalf("trace stats = %+v, want 1 open and %d coalesce hits", st, consumers)
	}
	fresh, err := mustRunner(t, tinyCoalesceOpts()).buildSuite(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]trace.Record
	for _, s := range fresh.streams {
		recs, err := trace.Collect(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, recs)
	}
	for i, got := range views {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("consumer %d replayed records that differ from a fresh generation", i)
		}
	}
}

// TestAllGeneratesEachTraceOnce runs every driver of All() side by side, as
// the experiments CLI does, and checks the pass generates each workload's
// trace exactly once. Its tables must be byte-identical to the unwrapped
// drivers run serially on a runner that holds no plan.
func TestAllGeneratesEachTraceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice")
	}
	opts := Options{RecordsPerCore: 400, FaultTrials: 1000, Parallel: 2}
	ctx := context.Background()
	r := mustRunner(t, opts)
	all := r.All()

	// A plan is retired once its last holder releases, so a driver that
	// only starts after every earlier holder finished would regenerate.
	// Gate every trace consumption until all drivers hold their plans —
	// the overlap a shared worker pool gives a real suite run — so the
	// count below is exact rather than scheduling-dependent.
	var entered, finished atomic.Int64
	gate := make(chan struct{})
	r.SetTraceWrap(func(_ string, s trace.Stream) trace.Stream {
		<-gate
		return s
	})
	first := r.Workloads()[0].Name
	go func() {
		defer close(gate)
		deadline := time.Now().Add(time.Minute)
		for entered.Load() < int64(len(all)) ||
			int64(r.planHolders(first)) != entered.Load()-finished.Load() {
			if time.Now().After(deadline) {
				t.Error("drivers never all held their trace plans")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	held, err := exec.Map(ctx, len(all), len(all), func(i int) (string, error) {
		entered.Add(1)
		defer finished.Add(1)
		tab, err := all[i].Run(ctx)
		if err != nil {
			return "", fmt.Errorf("%s: %w", all[i].ID, err)
		}
		return tab.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, n := r.TraceStats(), len(r.Workloads()); st.Opens != uint64(n) {
		t.Fatalf("suite pass generated %d traces, want one per workload (%d); stats %+v", st.Opens, n, st)
	}
	if r.planHolders(first) != 0 {
		t.Fatal("plans still held after every driver returned")
	}

	plain := mustRunner(t, opts)
	for i, d := range drivers {
		tab, err := d.run(plain, ctx)
		if err != nil {
			t.Fatalf("%s: %v", d.id, err)
		}
		if got := tab.String(); got != held[i] {
			t.Fatalf("%s: tables differ between held and unheld runs:\n--- held ---\n%s\n--- unheld ---\n%s", d.id, held[i], got)
		}
	}
	if st := plain.TraceStats(); st.CoalesceHits != 0 {
		t.Fatalf("unwrapped drivers were served %d coalesce hits, want 0", st.CoalesceHits)
	}
}
