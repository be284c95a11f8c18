package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hmem"
	hexec "hmem/internal/exec"
	"hmem/internal/experiments"
)

// setUpDaemons starts hmemd repeats times and returns the last daemon,
// still running, with every start-up's duration. Earlier daemons are
// stopped, so only one child is ever measured.
func setUpDaemons(ctx context.Context, cfg config, repeats int) (*daemon, []float64, error) {
	var (
		d      *daemon
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(ctx, cfg.hmemd, cfg.trace); err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
	}
	return d, setups, nil
}

// profileSeconds is the CPU-profile length for a traced half expected to
// last about like the untraced one.
func profileSeconds(untraced time.Duration) int {
	if s := int(untraced.Seconds()); s > 1 {
		return s
	}
	return 1
}

func runCold(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	opAt := coldSchedule(cfg.seed).op
	d, setups, err := setUpDaemons(ctx, cfg, setupRepeats)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// Rounds of coldRoundOps operations, each on a fresh daemon, until
		// the run has lasted -seconds; operation indices continue across
		// rounds, so every operation keeps a seed of its own.
		var (
			run   *loadRun
			peaks []float64
			until = time.Now().Add(time.Duration(cfg.seconds) * time.Second)
		)
		for round := 0; round == 0 || time.Now().Before(until); round++ {
			if round > 0 {
				if d, _, err = startDaemon(ctx, cfg.hmemd, false); err != nil {
					return nil, err
				}
			}
			base := round * coldRoundOps
			r := newLoadRun(0)
			if round == 0 {
				r = newLoadRun(coldDigestOps)
			}
			closedLoop(ctx, d.client(), r, func(i int) op { return opAt(base + i) }, coldRoundOps, time.Time{}, nil)
			rss, err := peakRSSMB(d.pid)
			if err != nil {
				return nil, err
			}
			d.stop()
			peaks = append(peaks, rss)
			if run == nil {
				run = r
			} else {
				run.absorb(r)
			}
		}
		if err := run.record(out, cfg, "cold", opAt); err != nil {
			return nil, err
		}
		if err := checkFresh(ctx, out, run, opAt, diffOps, nil); err != nil {
			return nil, err
		}
		out.add("setup_s", median(setups), "s", len(setups))
		addE2E(out, run.e2e())
		out.add("peak_rss_mb", median(peaks), "MB", len(peaks))
		return out, nil
	}

	// Traced: the first round's operations, untraced on one fresh daemon
	// and traced on another, so the two halves see equal inputs.
	untraced := newLoadRun(coldDigestOps)
	closedLoop(ctx, d.client(), untraced, opAt, coldRoundOps, time.Time{}, nil)
	d.stop()
	d2, _, err := startDaemon(ctx, cfg.hmemd, true)
	if err != nil {
		return nil, err
	}
	traced := newLoadRun(coldDigestOps)
	tr, prof, err := traceLoad(ctx, d2, profileSeconds(untraced.wall), traced, func() {
		closedLoop(ctx, d2.client(), traced, opAt, coldRoundOps, time.Time{}, nil)
	})
	d2.stop()
	if err != nil {
		return nil, err
	}
	for _, run := range []*loadRun{untraced, traced} {
		if err := run.record(out, cfg, "cold", opAt); err != nil {
			return nil, err
		}
	}
	sample := &layerTrace{spans: newSpanTotals(), gen: &genTimer{}}
	if err := checkFresh(ctx, out, traced, opAt, sampleOps, sample); err != nil {
		return nil, err
	}
	tr.engineMS = sample.evalMS
	r, err := experiments.NewRunner(*opAt(0).engineOptions())
	if err != nil {
		return nil, err
	}
	probe, err := probeSim(ctx, r, probeWorkloads)
	if err != nil {
		return nil, err
	}
	addTracingOverhead(out, untraced.e2e(), traced.e2e())
	addSimLayers(out, sample.gen, sample.spans, probe, len(sample.evalMS))
	addRunnerCounts(out, sample.memo, sample.traces)
	addCPUShares(out, prof)
	addServiceLayers(out, tr)
	return out, nil
}

// layerTrace carries the in-process tracing of an engine sample.
type layerTrace struct {
	spans  *spanTotals
	gen    *genTimer
	evalMS []float64 // fresh engine + Evaluate, per evaluate operation
	memo   hexec.MemoStats
	traces experiments.TraceStats
}

// checkFresh re-evaluates operations of a cold run in process and counts a
// failure for every response that differs from hmemd's byte for byte. It
// checks the first n retained operations; with lt set it traces only the
// evaluate operations among them (the class whose server time
// engine.evaluate_ms is set against) and times each.
func checkFresh(ctx context.Context, out *outcome, run *loadRun, opAt func(int) op, n int, lt *layerTrace) error {
	for i := 0; i < n && i < len(run.kept); i++ {
		o := opAt(i)
		var olt *layerTrace
		if o.class == "evaluate" {
			olt = lt
		}
		canon, err := evalFresh(ctx, o, olt)
		if err != nil {
			return err
		}
		if run.kept[i] != nil && string(canon) != string(run.kept[i]) {
			out.failed++
			out.problem("op %d: hmemd answered %s, in-process engine %s", i, run.kept[i], canon)
		}
	}
	return nil
}

// evalFresh evaluates an operation in process on a fresh hmem.Engine, as
// hmemd builds one per new options seed, and returns the canonical
// response. With lt set the evaluation is traced and timed.
func evalFresh(ctx context.Context, o op, lt *layerTrace) ([]byte, error) {
	start := time.Now()
	e, err := hmem.NewEngine(o.engineOptions())
	if err != nil {
		return nil, err
	}
	if lt != nil {
		ctx = lt.spans.tracedContext(ctx)
		e.SetTraceWrap(lt.gen.wrap)
	}
	res := make([]hmem.Result, len(o.policies))
	for j, p := range o.policies {
		if res[j], err = e.Evaluate(ctx, o.workload, p); err != nil {
			return nil, err
		}
	}
	if lt != nil {
		lt.evalMS = append(lt.evalMS, float64(time.Since(start))/1e6)
		lt.memo = lt.memo.Add(e.CacheStats())
		lt.traces = lt.traces.Add(e.TraceStats())
	}
	return json.Marshal(res)
}

// canary evaluates the first diffOps operations of the default seed's cold
// schedule in process and compares them with the committed reference, so
// that every run checks the program's outputs on fixed inputs, whatever
// its own seed.
func canary(ctx context.Context, out *outcome, cfg config) error {
	opAt := coldSchedule(defaultSeed).op
	h := sha256.New()
	for i := 0; i < diffOps; i++ {
		canon, err := evalFresh(ctx, opAt(i), nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%d\t%s\n", i, canon)
	}
	got := fmt.Sprintf("ops=%d sha256=%s\n", diffOps, hex.EncodeToString(h.Sum(nil)))
	cfg.seed = defaultSeed
	if cfg.updateRef {
		return writeReference(cfg, "canary", got)
	}
	want, ok, err := readReference(cfg, "canary")
	if err != nil {
		return err
	}
	out.attempted++
	if !ok || got != want {
		out.failed++
		out.problem("canary digest %q differs from the reference %q", got, want)
	}
	return nil
}

// warmFill is the result of a warm set-up's pass over every shape.
type warmFill map[string]hmem.Result

func fillKey(seed uint64, workload string, p hmem.PolicyName) string {
	return fmt.Sprintf("%d/%s/%s", seed, workload, p)
}

// fill evaluates every (seed, workload, policy) shape warm can send, as one
// compare per (seed, workload), from the benchmark's clients.
func (s schedule) fill(ctx context.Context, d *daemon) (warmFill, error) {
	type shape struct {
		seed     uint64
		workload string
	}
	var shapes []shape
	for _, sd := range s.seeds {
		for _, w := range s.workloads {
			shapes = append(shapes, shape{sd, w})
		}
	}
	c := d.client()
	pols := hmem.Policies()
	results, err := hexec.Map(ctx, workers, len(shapes), func(i int) ([]hmem.Result, error) {
		o := op{class: "compare", workload: shapes[i].workload, policies: pols, seed: shapes[i].seed}
		return do(ctx, c, o)
	})
	if err != nil {
		return nil, fmt.Errorf("warm fill: %w", err)
	}
	f := warmFill{}
	for i, rs := range results {
		for j, r := range rs {
			f[fillKey(shapes[i].seed, shapes[i].workload, pols[j])] = r
		}
	}
	return f, nil
}

// check compares a warm response with the fill's answers for its shapes.
func (f warmFill) check(o op, res []hmem.Result) error {
	if len(res) != len(o.policies) {
		return fmt.Errorf("%d results for %d policies", len(res), len(o.policies))
	}
	for j, p := range o.policies {
		want, ok := f[fillKey(o.seed, o.workload, p)]
		got, _ := json.Marshal(res[j])
		exp, _ := json.Marshal(want)
		if !ok || string(got) != string(exp) {
			return fmt.Errorf("%s: got %s, set-up answered %s", p, got, exp)
		}
	}
	return nil
}

func runWarm(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	shapes := warmSchedule(cfg.seed)
	opAt := shapes.op
	var fills []warmFill
	// setUp starts a daemon and fills its result cache; set-up time runs
	// from process start to the end of the fill.
	setUp := func() (*daemon, float64, error) {
		start := time.Now()
		d, _, err := startDaemon(ctx, cfg.hmemd, cfg.trace)
		if err != nil {
			return nil, 0, err
		}
		f, err := shapes.fill(ctx, d)
		if err != nil {
			return nil, 0, err
		}
		fills = append(fills, f)
		return d, time.Since(start).Seconds(), nil
	}
	budget := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		// warmRounds rounds, each on a fresh daemon set up with the fill and
		// then loaded for an equal share of the run. A daemon's peak memory
		// is set during its fill, so peak_rss_mb, like setup_s, is the
		// median over the rounds.
		var (
			run           *loadRun
			setups, peaks []float64
		)
		for round := 0; round < warmRounds; round++ {
			d, took, err := setUp()
			if err != nil {
				return nil, err
			}
			r := newLoadRun(0)
			if round == 0 {
				r = newLoadRun(warmDigestOps)
			}
			closedLoop(ctx, d.client(), r, opAt, 0, time.Now().Add(budget/warmRounds), fills[round].check)
			rss, err := peakRSSMB(d.pid)
			if err != nil {
				return nil, err
			}
			d.stop()
			setups = append(setups, took)
			peaks = append(peaks, rss)
			if run == nil {
				run = r
			} else {
				run.absorb(r)
			}
		}
		if err := checkWarmFill(ctx, out, shapes, fills); err != nil {
			return nil, err
		}
		if err := run.record(out, cfg, "warm", opAt); err != nil {
			return nil, err
		}
		out.add("setup_s", median(setups), "s", len(setups))
		addE2E(out, run.e2e())
		out.add("peak_rss_mb", median(peaks), "MB", len(peaks))
		return out, nil
	}

	d, _, err := setUp()
	if err != nil {
		return nil, err
	}
	fill := fills[0]
	if err := checkWarmFill(ctx, out, shapes, fills); err != nil {
		return nil, err
	}
	// Traced: an untraced half, then a traced half on the same daemon
	// (every request is a cache hit, so the daemon's state does not drift).
	budget /= 2
	untraced := newLoadRun(warmDigestOps)
	closedLoop(ctx, d.client(), untraced, opAt, 0, time.Now().Add(budget), fill.check)
	traced := newLoadRun(warmDigestOps)
	tr, prof, err := traceLoad(ctx, d, profileSeconds(budget), traced, func() {
		closedLoop(ctx, d.client(), traced, opAt, 0, time.Now().Add(budget), fill.check)
	})
	d.stop()
	if err != nil {
		return nil, err
	}
	for _, run := range []*loadRun{untraced, traced} {
		if err := run.record(out, cfg, "warm", opAt); err != nil {
			return nil, err
		}
	}
	addTracingOverhead(out, untraced.e2e(), traced.e2e())
	// A warm request never reaches an engine, so the engine and the
	// layers under it report zero and all of the server time is service
	// overhead.
	addSimLayers(out, &genTimer{}, newSpanTotals(), simProbe{}, 1)
	addRunnerCounts(out, hexec.MemoStats{}, experiments.TraceStats{})
	addCPUShares(out, prof)
	addServiceLayers(out, tr)
	return out, nil
}

// checkWarmFill checks that every set-up's fill gave the same answers and
// that a few of them match an in-process engine byte for byte.
func checkWarmFill(ctx context.Context, out *outcome, shapes schedule, fills []warmFill) error {
	want, _ := json.Marshal(fills[0])
	for i, f := range fills[1:] {
		out.attempted++
		if got, _ := json.Marshal(f); string(got) != string(want) {
			out.failed++
			out.problem("warm set-up %d answered differently from set-up 0", i+1)
		}
	}
	var mu sync.Mutex
	_, err := hexec.Map(ctx, workers, len(shapes.seeds), func(i int) (struct{}, error) {
		sd := shapes.seeds[i]
		e, err := hmem.NewEngine(op{seed: sd}.engineOptions())
		if err != nil {
			return struct{}{}, err
		}
		w := shapes.workloads[i%len(shapes.workloads)]
		p := hmem.Policies()[i]
		r, err := e.Evaluate(ctx, w, p)
		if err != nil {
			return struct{}{}, err
		}
		got, _ := json.Marshal(r)
		exp, _ := json.Marshal(fills[len(fills)-1][fillKey(sd, w, p)])
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		if string(got) != string(exp) {
			out.failed++
			out.problem("warm fill %s: hmemd answered %s, in-process engine %s", fillKey(sd, w, p), exp, got)
		}
		return struct{}{}, nil
	})
	return err
}
