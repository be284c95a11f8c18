// Command perfbench is hmem's end-to-end benchmark. It runs one workload
// per invocation and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload suite|cold|warm -seed N -seconds S -trace 0|1
//
// Workloads (the reasons each exists are in targets.json):
//
//   - suite: all experiments of experiments.Runner.All() on a fresh runner,
//     the way cmd/experiments -out "" runs them, repeated for S seconds.
//   - cold: rounds of a fixed number of operations (coldRoundOps), each on
//     a fresh child hmemd, for S seconds; every operation carries a unique
//     options seed and comes from one of 2 closed-loop clients.
//   - warm: the same request shapes in 3 rounds, each against a freshly
//     started child hmemd whose result cache its set-up filled, S seconds
//     in all.
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, p50_ms,
// ops_per_s, peak_rss_mb). With -trace 1 the run is split into an untraced
// and a traced half; the metrics are the per-layer ones plus both halves'
// end-to-end numbers, which give the tracing overhead.
//
// Run it through run.sh, which builds hmemd and this program first, so
// that build time never counts as set-up.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// deadline bounds one invocation: the harness gives each run 180 s.
const deadline = 170 * time.Second

// measurement is one reported metric with the number of samples behind it.
// An extra measurement is printed for people but left out of the JSON line,
// whose metric set is fixed by BENCHMARK.json.
type measurement struct {
	name    string
	value   float64
	unit    string
	samples int
	extra   bool
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// problems lists failed correctness checks, each also counted in
	// failed where it concerns an operation.
	problems []string
	metrics  []measurement
}

func (o *outcome) add(name string, value float64, unit string, samples int) {
	o.metrics = append(o.metrics, measurement{name, value, unit, samples, false})
}

func (o *outcome) addExtra(name string, value float64, unit string, samples int) {
	o.metrics = append(o.metrics, measurement{name, value, unit, samples, true})
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	hmemd    string
	// updateRef rewrites the reference outputs for the seed instead of
	// checking against them.
	updateRef bool
}

func main() {
	var (
		cfg     config
		traceOn int
		probe   bool
	)
	flag.StringVar(&cfg.workload, "workload", "suite", "workload: suite, cold or warm")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measurement length in seconds")
	flag.IntVar(&traceOn, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.hmemd, "hmemd", ".bench_build/bin/hmemd", "hmemd binary to start")
	flag.BoolVar(&cfg.updateRef, "update-ref", false, "write this seed's reference outputs instead of checking them")
	flag.BoolVar(&probe, "setup-probe", false, "internal: build the suite's runner and exit (times suite set-up)")
	flag.Parse()
	cfg.trace = traceOn == 1
	if probe {
		if err := suiteSetupProbe(cfg.seed); err != nil {
			fatal(err)
		}
		return
	}
	if cfg.seconds < 1 || (traceOn != 0 && traceOn != 1) {
		fatal(errors.New("-seconds must be >= 1 and -trace 0 or 1"))
	}

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	// Children die with us on every path: signals and the deadline cancel
	// ctx, and every started hmemd is killed and reaped before exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cancel()
	}()
	watchdog := time.AfterFunc(deadline+5*time.Second, func() {
		killDaemons()
		fmt.Fprintln(os.Stderr, "perfbench: deadline exceeded")
		os.Exit(3)
	})

	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "suite":
		out, err = runSuite(ctx, cfg)
	case "cold":
		out, err = runCold(ctx, cfg)
	case "warm":
		out, err = runWarm(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q (valid: suite, cold, warm)", cfg.workload)
	}
	killDaemons()
	if err == nil {
		err = canary(ctx, out, cfg)
	}
	watchdog.Stop()
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run interrupted: %w", ctx.Err())
	}
	if err != nil {
		fatal(err)
	}
	report(out)
}

// report prints every metric by name, unit and sample count, the checks
// that failed, and the final JSON line.
func report(out *outcome) {
	for _, m := range out.metrics {
		tag := ""
		if m.extra {
			tag = " (extra)"
		}
		fmt.Printf("metric %-34s %14.6g %-6s n=%d%s\n", m.name, m.value, m.unit, m.samples, tag)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("metric %-34s %14.6g %-6s n=%d\n", "error_rate", errRate, "ratio", out.attempted)
	for _, p := range out.problems {
		fmt.Println("check failed:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range out.metrics {
		if m.extra {
			continue
		}
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	killDaemons()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
