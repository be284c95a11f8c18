package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	hexec "hmem/internal/exec"
	"hmem/internal/experiments"
	"hmem/internal/xrand"
)

const (
	// defaultSeed and heldOutSeed have committed reference outputs. The
	// held-out seed is for re-checking a claim on inputs it was not tuned on.
	defaultSeed = 1
	heldOutSeed = 2018

	// suiteRecords is the reduced trace length per core: one pass of all
	// experiments takes a few seconds on 2 cores, so a run holds several.
	suiteRecords = 2000
	// workers is the worker count of the suite and the client count of the
	// service workloads: one per core of the 2-core reference machine.
	workers = 2
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 9
	// refDir holds the committed reference outputs, relative to the
	// repository root the benchmark runs from.
	refDir = "perfbench/reference"
)

// Salts separating the seed streams of the workloads' inputs.
const (
	saltSuite = iota + 1
	saltCold
	saltWarm
)

// probeWorkloads are the workloads the direct sim probe drives: the high,
// medium and low memory-intensity trio of the migration-interval figure.
var probeWorkloads = []string{"libquantum", "soplex", "astar"}

func suiteOptions(seed uint64) experiments.Options {
	return experiments.Options{
		RecordsPerCore: suiteRecords,
		Seed:           xrand.Derive(seed, saltSuite) | 1,
		Parallel:       workers,
	}
}

// suiteSetupProbe is the whole of a suite process's set-up: build the
// runner and its experiment list.
func suiteSetupProbe(seed uint64) error {
	r, err := experiments.NewRunner(suiteOptions(seed))
	if err != nil {
		return err
	}
	if len(r.All()) == 0 {
		return errors.New("no experiments")
	}
	return nil
}

// pass is one run of every experiment on a fresh runner.
type pass struct {
	tables  string
	elapsed time.Duration
	memo    hexec.MemoStats
	traces  experiments.TraceStats
}

// runPass runs all experiments the way cmd/experiments does: on a shared
// worker pool, tables kept in paper order. gen, when set, is installed as
// the runner's trace wrap.
func runPass(ctx context.Context, opts experiments.Options, gen *genTimer) (pass, *experiments.Runner, error) {
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return pass{}, nil, err
	}
	if gen != nil {
		r.SetTraceWrap(gen.wrap)
	}
	all := r.All()
	start := time.Now()
	tables, err := hexec.Map(ctx, opts.Parallel, len(all), func(i int) (string, error) {
		t, err := all[i].Run(ctx)
		if err != nil {
			return "", fmt.Errorf("%s: %w", all[i].ID, err)
		}
		return "== " + all[i].ID + "\n" + t.String() + "\n", nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return pass{}, nil, err
	}
	return pass{
		tables:  strings.Join(tables, ""),
		elapsed: elapsed,
		memo:    r.CacheStats(),
		traces:  r.TraceStats(),
	}, r, nil
}

// runPasses repeats passes until they have taken budget (at least one).
func runPasses(ctx context.Context, opts experiments.Options, budget time.Duration, gen *genTimer) ([]pass, *experiments.Runner, error) {
	var (
		out   []pass
		total time.Duration
		last  *experiments.Runner
	)
	for len(out) == 0 || total < budget {
		p, r, err := runPass(ctx, opts, gen)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, p)
		total += p.elapsed
		last = r
	}
	return out, last, nil
}

// checkPasses counts passes whose tables differ from the reference (when
// the seed has one) or from the run's first pass.
func checkPasses(out *outcome, cfg config, passes []pass) {
	want, ok, err := readReference(cfg, "suite")
	if err != nil {
		out.problem("%v", err)
	}
	against := "the reference"
	if !ok {
		want, against = passes[0].tables, "pass 0"
	}
	for i, p := range passes {
		out.attempted++
		if p.tables != want {
			out.failed++
			out.problem("suite pass %d: tables differ from %s", i, against)
		}
	}
}

func runSuite(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-seed", fmt.Sprint(cfg.seed))
		if b, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("suite set-up probe: %v: %s", err, b)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	opts := suiteOptions(cfg.seed)
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		budget /= 2
	}
	passes, _, err := runPasses(ctx, opts, budget, nil)
	if err != nil {
		return nil, err
	}
	if cfg.updateRef {
		return out, writeReference(cfg, "suite", passes[0].tables)
	}
	e2e := suiteE2E(passes)
	if !cfg.trace {
		checkPasses(out, cfg, passes)
		out.add("setup_s", median(setups), "s", len(setups))
		addE2E(out, e2e)
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		out.add("peak_rss_mb", rss, "MB", 1)
		out.addExtra("suite_s", median(e2e.latMS)/1e3, "s", len(e2e.latMS))
		out.addExtra("sims_per_pass", float64(passes[0].memo.Misses), "count", len(passes))
		return out, nil
	}

	// Traced half: spans at the layer boundaries the program records, a
	// timed trace wrap, and a CPU profile of the passes.
	spans := newSpanTotals()
	gen := &genTimer{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, r, err := runPasses(spans.tracedContext(ctx), opts, budget, gen)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	checkPasses(out, cfg, append(passes, traced...))
	probe, err := probeSim(ctx, r, probeWorkloads)
	if err != nil {
		return nil, err
	}
	addTracingOverhead(out, e2e, suiteE2E(traced))
	addSimLayers(out, gen, spans, probe, len(traced))
	last := traced[len(traced)-1]
	addRunnerCounts(out, last.memo, last.traces)
	addCPUShares(out, prof.Bytes())
	addServiceLayers(out, nil)
	return out, nil
}

// e2e is one half-run's end-to-end samples.
type e2e struct {
	latMS []float64     // per-operation latency
	wall  time.Duration // measured wall time
	// rates are completions per whole second of a service run's loops;
	// nil for the suite, whose operations last seconds.
	rates []float64
}

func suiteE2E(passes []pass) e2e {
	var e e2e
	for _, p := range passes {
		e.latMS = append(e.latMS, float64(p.elapsed)/1e6)
		e.wall += p.elapsed
	}
	return e
}

// minWindowOps is the per-second completion count from which a run's
// throughput is the median over its seconds rather than operations over
// wall time: at that rate a host stall of a second or two cuts the overall
// rate much more than it moves the median latency, and a count is
// resolved to 1%.
const minWindowOps = 100

// opsPerSecond returns the run's throughput and the number of samples
// behind it.
func (e e2e) opsPerSecond() (float64, int) {
	if len(e.rates) > 0 && median(e.rates) >= minWindowOps {
		return median(e.rates), len(e.rates)
	}
	return float64(len(e.latMS)) / e.wall.Seconds(), len(e.latMS)
}

// addE2E reports p50_ms and ops_per_s, and the highest percentile the
// sample count supports.
func addE2E(out *outcome, e e2e) {
	n := len(e.latMS)
	out.add("p50_ms", median(e.latMS), "ms", n)
	rate, samples := e.opsPerSecond()
	out.add("ops_per_s", rate, "1/s", samples)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p99_ms", 0.99}, {"p90_ms", 0.90}} {
		if v, ok := percentile(e.latMS, q.q); ok {
			out.addExtra(q.name, v, "ms", n)
			break
		}
	}
}

// addTracingOverhead reports the untraced and traced halves side by side.
func addTracingOverhead(out *outcome, untraced, traced e2e) {
	out.add("tracing.p50_ms_untraced", median(untraced.latMS), "ms", len(untraced.latMS))
	out.add("tracing.p50_ms_traced", median(traced.latMS), "ms", len(traced.latMS))
	for _, h := range []struct {
		name string
		e    e2e
	}{{"untraced", untraced}, {"traced", traced}} {
		rate, samples := h.e.opsPerSecond()
		out.add("tracing.ops_per_s_"+h.name, rate, "1/s", samples)
	}
}

// readReference returns the committed reference output of a workload for
// the run's seed, if there is one.
func readReference(cfg config, name string) (string, bool, error) {
	b, err := os.ReadFile(referencePath(cfg, name))
	if errors.Is(err, os.ErrNotExist) {
		return "", false, nil
	}
	if err != nil {
		return "", false, err
	}
	return string(b), true, nil
}

func writeReference(cfg config, name, content string) error {
	if err := os.MkdirAll(refDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(referencePath(cfg, name), []byte(content), 0o644)
}

func referencePath(cfg config, name string) string {
	return filepath.Join(refDir, fmt.Sprintf("%s-seed%d.txt", name, cfg.seed))
}
