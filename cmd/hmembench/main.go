// Command hmembench is hmem's performance gate. It compares the benchmarks
// of a base revision with the same benchmarks in the working tree, paired
// on one machine, so the verdict never depends on how fast the machine is:
//
//  1. the base revision is checked out into a temporary git worktree;
//  2. each benchmark package's test binary is compiled once per side with
//     `go test -c -trimpath`, so build time is never measured and a package
//     the change does not touch runs the same bytes on both sides;
//  3. the binaries run in pairs (base then head, head then base, ...), and
//     for every benchmark measured on both sides the gate takes the median
//     over the pairs of the head/base ns/op ratio.
//
// The gate fails when a median ratio exceeds ratioBound, or when allocs/op
// rises: exactly for zero-alloc benchmarks, beyond allocSlack otherwise.
// A benchmark measured on one side only is listed but not gated.
//
// Usage (exit status 1 on a regression):
//
//	go run ./cmd/hmembench -base origin/main
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	// pairs is the number of base/head pairs each benchmark runs. On a
	// loaded 2-vCPU virtual machine one pair of identical binaries gives a
	// ratio between 0.63 and 1.56 (5th–95th percentile of 420 pairs), and
	// over 10 pairs a benchmark's median still reached 1.20.
	pairs = 20
	// ratioBound is the largest median head/base ns/op ratio that passes.
	// In five A/A runs on that machine (22 benchmarks, 20 pairs each)
	// every median lay between 0.91 and 1.08; a planted 20% slowdown of
	// the per-access path reads about 1.2.
	ratioBound = 1.10
	// allocSlack is the relative allocs/op rise tolerated on benchmarks
	// that allocate. Allocation counts do not depend on machine speed, but
	// goroutine-heavy benchmarks see scheduler jitter (sudogs at blocking
	// selects, defer records) of a few dozen counts in ~1e6 per op. Zero
	// times anything is zero, so alloc-free benchmarks stay exact.
	allocSlack = 0.005
)

// microPattern selects the per-access and per-decision micro-benchmarks.
const microPattern = "^(BenchmarkPageTableIntern|BenchmarkFullCounters|BenchmarkPlacementLookupIndex|BenchmarkPerAccessPath|BenchmarkMigratorDecide|BenchmarkObserve|BenchmarkAccess|BenchmarkStudyHBM)"

// target is one benchmark package, the benchmarks it runs and how long.
type target struct {
	dir, bench, benchtime string
}

// targets are the gated benchmarks: the micro group, one benchmark set per
// simulator layer, and one full 23-experiment suite pass end to end.
var targets = []target{
	{"internal/core", microPattern, "50ms"},
	{"internal/sim", microPattern, "50ms"},
	{"internal/avf", microPattern, "50ms"},
	{"internal/mea", microPattern, "50ms"},
	{"internal/migration", microPattern, "50ms"},
	{"internal/faultsim", microPattern, "50ms"},
	{"internal/memsim", "^Benchmark(RandomAccess|Streaming)$", "50ms"},
	{"internal/cachesim", "^Benchmark(CacheAccess|HierarchyFilter)$", "50ms"},
	{"internal/workload", "^BenchmarkGeneratorNext$", "50ms"},
	{"internal/trace", "^BenchmarkReaderNext$", "50ms"},
	{"internal/ecc", "^Benchmark(Encode|Decode)", "50ms"},
	{"internal/experiments", "^BenchmarkSuitePass$", "1x"},
}

func main() {
	base := flag.String("base", "HEAD", "git revision the working tree is compared with")
	flag.Parse()
	if err := run(*base); err != nil {
		fmt.Fprintln(os.Stderr, "hmembench:", err)
		os.Exit(1)
	}
}

// side is one tree under comparison and its compiled test binaries, by
// target index (empty where the package does not build on that side).
type side struct {
	name, root string
	bins       []string
	cpu        string // as the benchmark binaries report it
}

func run(rev string) error {
	head, err := output("", "go", "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "hmembench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// The base tree sits beside the binaries: tmp/base and tmp/head hold
	// each side's binaries under paths of the same length.
	baseRoot := filepath.Join(tmp, "tree")
	if _, err := output(head, "git", "worktree", "add", "--detach", baseRoot, rev); err != nil {
		return err
	}
	defer func() {
		if _, err := output(head, "git", "worktree", "remove", "--force", baseRoot); err != nil {
			fmt.Fprintln(os.Stderr, "hmembench:", err)
		}
	}()

	sides := []*side{{name: "base", root: baseRoot}, {name: "head", root: head}}
	for _, s := range sides {
		if err := s.build(filepath.Join(tmp, s.name)); err != nil {
			return err
		}
	}

	// samples[s][i] holds side s's results in pair i; odd pairs run the
	// head first, so neither side always runs on a warmer machine.
	samples := [2][]map[string]Result{make([]map[string]Result, pairs), make([]map[string]Result, pairs)}
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(os.Stderr, "hmembench: pair %d/%d\n", i+1, pairs)
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for s := range samples {
			samples[s][i] = map[string]Result{}
		}
		for t := range targets {
			for _, s := range order {
				if err := sides[s].bench(t, samples[s][i]); err != nil {
					return err
				}
			}
		}
	}

	verdicts, oneSided := decide(samples[0], samples[1])
	fmt.Printf("cpu: %s\n", sides[1].cpu)
	fmt.Printf("%-62s %16s %16s %7s %17s\n", "benchmark (medians over pairs)", "base ns/op", "head ns/op", "ratio", "allocs/op")
	var failures []string
	for _, v := range verdicts {
		mark := ""
		if len(v.Failures) > 0 {
			mark = "  FAIL"
		}
		fmt.Printf("%-62s %16.1f %16.1f %7.3f %8d → %-6d%s\n", v.Name, v.Base.NsPerOp, v.Head.NsPerOp,
			v.Ratio, v.Base.AllocsPerOp, v.Head.AllocsPerOp, mark)
		failures = append(failures, v.Failures...)
	}
	for _, name := range oneSided {
		fmt.Println("not gated, measured on one side only:", name)
	}
	for _, f := range failures {
		fmt.Println("REGRESSION:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s) against %s", len(failures), rev)
	}
	fmt.Printf("gate passed: %d benchmarks against %s over %d pairs\n", len(verdicts), rev, pairs)
	return nil
}

// build compiles every target's test binary into dir. A package that does
// not build at the base is skipped (its benchmarks become one-sided); one
// that does not build in the working tree is an error.
func (s *side) build(dir string) error {
	s.bins = make([]string, len(targets))
	for t, tg := range targets {
		bin := filepath.Join(dir, strings.ReplaceAll(tg.dir, "/", "_")+".test")
		_, err := output(s.root, "go", "test", "-c", "-trimpath", "-o", bin, "./"+tg.dir)
		if err == nil {
			s.bins[t] = bin
			continue
		}
		if s.name == "head" {
			return err
		}
		fmt.Fprintf(os.Stderr, "hmembench: %s does not build at the base, skipped: %v\n", tg.dir, err)
	}
	return nil
}

// bench runs target t's benchmarks once on this side and adds the results
// to into.
func (s *side) bench(t int, into map[string]Result) error {
	if s.bins[t] == "" {
		return nil
	}
	tg := targets[t]
	cmd := exec.Command(s.bins[t], "-test.run", "^$", "-test.bench", tg.bench,
		"-test.benchmem", "-test.benchtime", tg.benchtime, "-test.timeout", "30m")
	cmd.Dir = filepath.Join(s.root, tg.dir)
	// An explicit Env keeps exec from adding PWD, so both sides start with
	// environments of the same size: the environment's size shifts the
	// initial stack, which moves a micro-benchmark by several percent.
	cmd.Env = os.Environ()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s benchmarks in %s: %w\n%s", s.name, tg.dir, err, out)
	}
	r, err := Parse(bytes.NewReader(out))
	if err != nil {
		return err
	}
	for name, res := range r.Benchmarks {
		into[name] = res
	}
	if r.CPU != "" {
		s.cpu = r.CPU
	}
	return nil
}

// output runs a command in dir and returns its trimmed standard output;
// on failure the error carries its standard error.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// verdict is the gate's decision on one benchmark measured on both sides.
type verdict struct {
	Name string
	// Base and Head are each side's per-metric medians over the pairs.
	Base, Head Result
	// Ratio is the median over the pairs of head/base ns/op.
	Ratio float64
	// Failures names every gate the benchmark failed; empty means it passed.
	Failures []string
}

// decide gates head against base, both indexed by pair. A benchmark counts
// in the pairs where both sides measured it; one measured on a single side
// only is returned in oneSided. Verdicts and oneSided are sorted by name.
func decide(base, head []map[string]Result) (verdicts []verdict, oneSided []string) {
	names := map[string]bool{}
	for _, side := range [][]map[string]Result{base, head} {
		for _, run := range side {
			for name := range run {
				names[name] = true
			}
		}
	}
	for name := range names {
		var ratios, bNs, hNs, bAllocs, hAllocs []float64
		for i := range base {
			b, okB := base[i][name]
			h, okH := head[i][name]
			if !okB || !okH || b.NsPerOp <= 0 {
				continue
			}
			ratios = append(ratios, h.NsPerOp/b.NsPerOp)
			bNs, hNs = append(bNs, b.NsPerOp), append(hNs, h.NsPerOp)
			bAllocs, hAllocs = append(bAllocs, float64(b.AllocsPerOp)), append(hAllocs, float64(h.AllocsPerOp))
		}
		if len(ratios) == 0 {
			oneSided = append(oneSided, name)
			continue
		}
		bA, hA := median(bAllocs), median(hAllocs)
		v := verdict{
			Name:  name,
			Base:  Result{NsPerOp: median(bNs), AllocsPerOp: int64(bA)},
			Head:  Result{NsPerOp: median(hNs), AllocsPerOp: int64(hA)},
			Ratio: median(ratios),
		}
		if v.Ratio > ratioBound {
			v.Failures = append(v.Failures, fmt.Sprintf("%s: ns/op %.1f%% slower (bound %.0f%%)",
				name, (v.Ratio-1)*100, (ratioBound-1)*100))
		}
		if limit := bA * (1 + allocSlack); hA > limit {
			v.Failures = append(v.Failures, fmt.Sprintf("%s: allocs/op %g → %g (limit %g)", name, bA, hA, limit))
		}
		verdicts = append(verdicts, v)
	}
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].Name < verdicts[j].Name })
	sort.Strings(oneSided)
	return verdicts, oneSided
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
