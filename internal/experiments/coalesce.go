package experiments

// Trace plans: N simulations of one workload normally pay N trace
// generations, because streams are consumed. A trace plan is a refcounted
// hold on a workload's trace: while at least one holder keeps it, the first
// simulation of that workload generates the per-core record slices once
// (singleflight) and every simulation — that one included — replays a
// zero-copy SliceStream view instead of regenerating. Holding is free: a
// hold whose simulations are all memo hits generates nothing. Plans are
// scoped to a unit of work — a figure driver run through All(), an Engine
// Evaluate/Compare request, a /v1/batch request — and dropped when the last
// holder releases, so they never grow the process's steady-state footprint
// the way memoizing traces would.
//
// Generators are pure functions of (spec, recordsPerCore, seed), so the
// collected records are bit-identical to what a fresh generator would emit;
// results computed through a plan are byte-identical to unheld runs.

import (
	"context"
	"sync"

	"hmem/internal/obs"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// TraceStats counts trace deliveries: Opens is how many times a workload's
// generators were actually run (plan materializations included), and
// CoalesceHits is how many simulations were served a replay view from a
// held plan instead. Exported on /metrics as hmemd_trace_opens_total /
// hmemd_coalesce_hits_total.
type TraceStats struct {
	Opens        uint64
	CoalesceHits uint64
}

// Add returns the element-wise sum, for aggregating several runners.
func (s TraceStats) Add(o TraceStats) TraceStats {
	return TraceStats{Opens: s.Opens + o.Opens, CoalesceHits: s.CoalesceHits + o.CoalesceHits}
}

// suiteView is what a simulation consumes from a workload build: the merged
// structure table plus one consumable stream per core. Fresh builds hand
// through the suite's generators; a held plan hands out SliceStream replay
// views over the materialized records.
type suiteView struct {
	structures []workload.Structure
	streams    []trace.Stream
}

// tracePlan is one refcounted hold on a workload's trace. The records are
// materialized by the first consumer (once guards it; concurrent consumers
// wait on the same generation).
type tracePlan struct {
	refs       int // guarded by Runner.plansMu
	once       sync.Once
	records    [][]trace.Record
	structures []workload.Structure
	err        error
}

// TraceStats returns the runner's trace-delivery counters.
func (r *Runner) TraceStats() TraceStats {
	return TraceStats{Opens: r.traceOpens.Load(), CoalesceHits: r.coalesceHits.Load()}
}

// SetTraceWrap installs a wrapper applied to every trace stream a
// simulation consumes, keyed by workload name — the fault-injection seam
// batch chaos tests use to fail one item's trace while the rest of the
// batch proceeds. A setter rather than an Options field: Options is
// fingerprinted with %#v for cache keys, which function pointers would
// break. Test-only; results computed under a wrap are cached like any
// other, so production runners must leave it nil.
func (r *Runner) SetTraceWrap(wrap func(workloadName string, s trace.Stream) trace.Stream) {
	r.traceWrapMu.Lock()
	r.traceWrap = wrap
	r.traceWrapMu.Unlock()
}

func (r *Runner) getTraceWrap() func(string, trace.Stream) trace.Stream {
	r.traceWrapMu.RLock()
	defer r.traceWrapMu.RUnlock()
	return r.traceWrap
}

// wrapStreams applies the installed trace wrap (if any) to a view's streams.
// Applied at consumption time, never at plan materialization, so an injected
// fault fails the simulations that consume it, not the shared plan.
func (r *Runner) wrapStreams(workloadName string, v *suiteView) *suiteView {
	wrap := r.getTraceWrap()
	if wrap == nil {
		return v
	}
	for i, s := range v.streams {
		v.streams[i] = wrap(workloadName, s)
	}
	return v
}

// AcquireTracePlan holds a replay plan for a workload and returns its
// release. While held, the workload's trace is generated at most once on
// this runner and every simulation of it replays the plan's records — K
// policies cost one trace pass. Acquiring only registers the hold, so it
// never blocks and the context is not consulted; nothing is generated
// until a simulation needs the trace. Acquisitions nest (refcounted);
// release is idempotent and drops the records once the last holder lets go.
//
// With a cluster delegate installed this is a no-op: simulations shard
// independently across workers, so a local materialization would cost
// memory without saving any replay.
func (r *Runner) AcquireTracePlan(_ context.Context, workloadName string) (release func(), err error) {
	spec, err := workload.SpecByName(workloadName)
	if err != nil {
		return nil, err
	}
	return r.holdPlans([]workload.Spec{spec}), nil
}

// holdPlans acquires a plan for each spec in one step and returns the
// idempotent release of all of them (a no-op under a cluster delegate).
func (r *Runner) holdPlans(specs []workload.Spec) (release func()) {
	if r.getDelegate() != nil {
		return func() {}
	}
	plans := make([]*tracePlan, len(specs))
	r.plansMu.Lock()
	if r.plans == nil {
		r.plans = make(map[string]*tracePlan)
	}
	for i, spec := range specs {
		p := r.plans[spec.Name]
		if p == nil {
			p = &tracePlan{}
			r.plans[spec.Name] = p
		}
		p.refs++
		plans[i] = p
	}
	r.plansMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.plansMu.Lock()
			defer r.plansMu.Unlock()
			for i, p := range plans {
				p.refs--
				if name := specs[i].Name; p.refs == 0 && r.plans[name] == p {
					delete(r.plans, name)
				}
			}
		})
	}
}

// heldPlan returns the workload's plan while any holder keeps it, or nil.
func (r *Runner) heldPlan(name string) *tracePlan {
	r.plansMu.Lock()
	defer r.plansMu.Unlock()
	return r.plans[name]
}

// materialize generates the plan's records on first use; every caller,
// concurrent ones included, returns once they are final. The generation
// counts as one trace open.
func (p *tracePlan) materialize(ctx context.Context, r *Runner, spec workload.Spec) error {
	p.once.Do(func() {
		if obs.Enabled(ctx) {
			_, sp := obs.Start(ctx, "trace.plan",
				obs.Str("workload", spec.Name), obs.Int("records_per_core", int64(r.opts.RecordsPerCore)))
			defer sp.End()
		}
		suite, err := spec.Build(r.opts.RecordsPerCore, r.opts.Seed)
		if err != nil {
			p.err = err
			return
		}
		r.traceOpens.Add(1)
		records := make([][]trace.Record, len(suite.Generators))
		for i, g := range suite.Generators {
			// Generators emit exactly RecordsPerCore records, so the bound
			// sizes each slice exactly: a held plan costs no growth slack.
			if records[i], err = trace.Collect(g, r.opts.RecordsPerCore); err != nil {
				p.err = err
				return
			}
		}
		p.records = records
		p.structures = suite.Structures
	})
	return p.err
}
