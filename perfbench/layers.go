package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hmem/internal/core"
	"hmem/internal/exec"
	"hmem/internal/experiments"
	"hmem/internal/migration"
	"hmem/internal/obs"
	"hmem/internal/sim"
	"hmem/internal/trace"
	"hmem/internal/workload"
)

// spanTotals is an obs exporter that sums span durations by name — the
// layer boundaries the program already records (sim.run, faultsim.study).
type spanTotals struct {
	mu     sync.Mutex
	busy   map[string]time.Duration
	count  map[string]int
	trials int64 // summed "trials" attribute of faultsim.study spans
}

func newSpanTotals() *spanTotals {
	return &spanTotals{busy: map[string]time.Duration{}, count: map[string]int{}}
}

func (s *spanTotals) Export(sd obs.SpanData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy[sd.Name] += time.Duration(sd.DurationNS)
	s.count[sd.Name]++
	if sd.Name == "faultsim.study" {
		for _, a := range sd.Attrs {
			if v, ok := a.Val.(int64); ok && a.Key == "trials" {
				s.trials += v
			}
		}
	}
	return nil
}

// total returns the summed duration in seconds and the count of name's spans.
func (s *spanTotals) total(name string) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy[name].Seconds(), s.count[name]
}

// tracedContext returns ctx carrying a tracer that feeds s.
func (s *spanTotals) tracedContext(ctx context.Context) context.Context {
	return obs.WithTracer(ctx, obs.NewTracer("perfbench", s))
}

// genTimer is a trace wrap that materializes every stream once, timing the
// whole materialization instead of reading a clock per record. The
// simulation then replays the records, so sim.run spans hold no generation
// time.
type genTimer struct {
	ns, records atomic.Int64
}

func (g *genTimer) wrap(_ string, s trace.Stream) trace.Stream {
	start := time.Now()
	recs, err := trace.Collect(s, 0)
	g.ns.Add(int64(time.Since(start)))
	g.records.Add(int64(len(recs)))
	if err != nil {
		return errStream{err}
	}
	return trace.NewSliceStream(recs)
}

type errStream struct{ err error }

func (e errStream) Next() (trace.Record, error) { return trace.Record{}, e.err }

// timedMigrator times a migrator's Decide calls.
type timedMigrator struct {
	sim.Migrator
	busy  time.Duration
	calls int
}

func (m *timedMigrator) Decide(now int64, p *sim.Placement) (in, out []uint64) {
	start := time.Now()
	in, out = m.Migrator.Decide(now, p)
	m.busy += time.Since(start)
	m.calls++
	return in, out
}

// MigratesConcurrently forwards the optional interface sim.RunCtx probes
// for, so wrapping never changes how a migration is charged.
func (m *timedMigrator) MigratesConcurrently() bool {
	cm, ok := m.Migrator.(interface{ MigratesConcurrently() bool })
	return ok && cm.MigratesConcurrently()
}

// simProbe is the outcome of driving sim.RunCtx directly with the three
// dynamic mechanisms the experiments package runs.
type simProbe struct {
	decideBusy  time.Duration
	decideCalls int
	runs        int
	allocBytes  uint64
}

// probeSim runs, for each named workload, the perf, full-counter and
// cross-counter migration mechanisms from the workload's balanced oracle
// placement, with the experiments package's parameters, on pre-generated
// traces. It times Decide and measures the bytes each sim.RunCtx call
// allocates.
func probeSim(ctx context.Context, r *experiments.Runner, names []string) (simProbe, error) {
	var p simProbe
	opts := r.Options()
	cfg := r.Config()
	meaRatio := int(opts.FCIntervalCycles / opts.MEAIntervalCycles)
	mechanisms := []func() sim.Migrator{
		func() sim.Migrator { return migration.NewPerf(opts.FCIntervalCycles) },
		func() sim.Migrator { return migration.NewFullCounter(opts.FCIntervalCycles) },
		func() sim.Migrator { return migration.NewCrossCounter(opts.MEAIntervalCycles, meaRatio, 32) },
	}
	for _, name := range names {
		spec, err := workload.SpecByName(name)
		if err != nil {
			return p, err
		}
		prof, err := r.ProfileOf(ctx, spec)
		if err != nil {
			return p, err
		}
		pages := core.Balanced{}.Select(prof.Stats, int(cfg.FastPages()))
		for _, build := range mechanisms {
			suite, err := spec.Build(opts.RecordsPerCore, opts.Seed)
			if err != nil {
				return p, err
			}
			streams := make([]trace.Stream, len(suite.Generators))
			for i, g := range suite.Generators {
				recs, err := trace.Collect(g, 0)
				if err != nil {
					return p, err
				}
				streams[i] = trace.NewSliceStream(recs)
			}
			mig := &timedMigrator{Migrator: build()}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = sim.RunCtx(ctx, cfg, streams, pages, false, mig)
			runtime.ReadMemStats(&after)
			if err != nil {
				return p, err
			}
			p.decideBusy += mig.busy
			p.decideCalls += mig.calls
			p.allocBytes += after.TotalAlloc - before.TotalAlloc
			p.runs++
		}
	}
	return p, nil
}

// addSimLayers reports the layers under the experiments runner: trace
// generation (from the genTimer wrap), the simulator's own time (sim.run
// spans), fault studies (faultsim.study spans), and the direct sim probe.
// Times and counts are divided by per, the number of operations traced, so
// they read per operation like the end-to-end latency.
func addSimLayers(out *outcome, gen *genTimer, spans *spanTotals, probe simProbe, per int) {
	n := float64(max(per, 1))
	genS := float64(gen.ns.Load()) / 1e9
	records := float64(gen.records.Load())
	out.add("workload.gen_s", genS/n, "s", per)
	out.add("workload.records", records/n, "count", per)
	out.add("workload.ns_per_record", ratio(genS*1e9, records), "ns", int(records))
	simS, runs := spans.total("sim.run")
	out.add("sim.self_s", simS/n, "s", runs)
	out.add("sim.ns_per_access", ratio(simS*1e9, records), "ns", int(records))
	out.add("sim.alloc_mb", ratio(float64(probe.allocBytes)/(1<<20), float64(probe.runs)), "MB", probe.runs)
	studyS, studies := spans.total("faultsim.study")
	out.add("faultsim.study_s", studyS/n, "s", studies)
	out.add("faultsim.trials_per_s", ratio(float64(spans.trials), studyS), "1/s", studies)
	out.add("migration.decide_s", probe.decideBusy.Seconds(), "s", probe.decideCalls)
	out.add("migration.decide_calls", float64(probe.decideCalls), "count", probe.runs)
}

// addRunnerCounts reports the experiments layer's exact work counters.
func addRunnerCounts(out *outcome, memo exec.MemoStats, ts experiments.TraceStats) {
	lookups := memo.Hits + memo.Misses
	out.add("experiments.sims_run", float64(memo.Misses), "count", 1)
	out.add("experiments.memo_hit_ratio", ratio(float64(memo.Hits), float64(lookups)), "ratio", int(lookups))
	out.add("experiments.trace_opens", float64(ts.Opens), "count", 1)
	out.add("experiments.coalesce_hits", float64(ts.CoalesceHits), "count", 1)
}

// addCPUShares reports each layer's share of a CPU profile.
func addCPUShares(out *outcome, profile []byte) {
	shares, err := cpuShares(profile)
	if err != nil {
		out.problem("cpu profile: %v", err)
	}
	for _, l := range cpuLayers {
		out.add(l+".cpu_share", shares[l], "ratio", 1)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
