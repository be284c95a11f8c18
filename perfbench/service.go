package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hmem"
	"hmem/internal/service"
	"hmem/internal/xrand"
)

const (
	// svcRecords and svcTrials are the small options patch every service
	// request carries, so one fresh evaluation costs tens of milliseconds.
	svcRecords = 800
	svcTrials  = 300
	// coldRoundOps is the fixed operation count of one cold round on a
	// fresh daemon: a faster program finishes a round sooner instead of
	// doing more operations in it, so peak_rss_mb compares equal work.
	coldRoundOps = 150
	// warmSeeds x warmWorkloads x all policies is warm's shape space; the
	// set-up fill evaluates every shape once.
	warmSeeds = 2
	// warmRounds is how many fresh, filled daemons a warm run loads in
	// turn; fewer than setupRepeats because each set-up includes the fill.
	warmRounds = 3
	// coldDigestOps and warmDigestOps are how many leading operations the
	// committed response digests cover.
	coldDigestOps = 64
	warmDigestOps = 500
	// diffOps is how many operations are re-evaluated in process and
	// compared byte for byte with hmemd's responses.
	diffOps = 3
	// sampleOps is how many leading operations a traced cold run repeats
	// in process, for engine.evaluate_ms and the layers under the engine.
	sampleOps = 16
)

// The three request classes, named as on the wire.
var classes = []string{"evaluate", "compare", "batch"}

// --- hmemd child processes ---

var (
	daemonsMu sync.Mutex
	daemons   []*daemon
)

// daemon is one hmemd child on a free loopback port.
type daemon struct {
	cmd   *exec.Cmd
	pid   string
	base  string
	debug string // base URL of the debug listener, "" when off
	done  chan struct{}
	log   lockedBuffer
	once  sync.Once
}

// startDaemon starts hmemd and returns once /healthz answers 200, with the
// time from process start until then. The child gets SIGKILL if this
// process dies first.
func startDaemon(ctx context.Context, bin string, debug bool) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ { // a freed port can be taken again
		d, took, err := tryStartDaemon(ctx, bin, debug)
		if err == nil {
			return d, took, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStartDaemon(ctx context.Context, bin string, debug bool) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", "127.0.0.1:" + port, "-parallel", strconv.Itoa(workers)}
	d := &daemon{base: "http://127.0.0.1:" + port, done: make(chan struct{})}
	if debug {
		dport, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-debug-addr", "127.0.0.1:"+dport)
		d.debug = "http://127.0.0.1:" + dport
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting hmemd: %w", err)
	}
	d.pid = strconv.Itoa(d.cmd.Process.Pid)
	go func() {
		_ = d.cmd.Wait() // a killed child's exit status is expected
		close(d.done)
	}()
	daemonsMu.Lock()
	daemons = append(daemons, d)
	daemonsMu.Unlock()

	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("hmemd exited during start-up: %s", d.log.String())
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("hmemd did not become healthy within 30s")
		}
	}
}

// stop kills the child and waits until it has exited.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.done
	})
}

// killDaemons stops every child this process started.
func killDaemons() {
	daemonsMu.Lock()
	ds := append([]*daemon(nil), daemons...)
	daemonsMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// lockedBuffer collects a child's output for error messages.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < 64<<10 {
		b.buf.Write(p)
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (d *daemon) client() *service.Client {
	c := service.NewPooledClient(d.base, workers)
	c.Retries = 0 // a refused or failed request is a failure, not a retry
	return c
}

func (d *daemon) metrics(ctx context.Context) (promSamples, error) {
	body, err := httpGet(ctx, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// --- operations ---

// op is one request: an evaluate (one policy), a compare or a batch of
// evaluate items on one workload, all under one options seed.
type op struct {
	class    string
	workload string
	policies []hmem.PolicyName
	seed     uint64
}

func (o op) patch() *service.OptionsPatch {
	return &service.OptionsPatch{RecordsPerCore: svcRecords, FaultTrials: svcTrials, Seed: o.seed}
}

func (o op) engineOptions() *hmem.Options {
	return &hmem.Options{RecordsPerCore: svcRecords, FaultTrials: svcTrials, Seed: o.seed, Parallel: workers}
}

// schedule generates a run's operations from its seed. Every run holds the
// same mix: each block of 10 operations has 7 evaluates, 2 compares (2-4
// policies) and 1 batch (3-6 evaluate items) in a seeded order, and the
// workload and first policy of operation i cycle through seeded
// permutations. A seed changes which shapes meet, not how much work a run
// holds, which keeps runs with different seeds comparable.
type schedule struct {
	seed, salt uint64
	workloads  []string
	policies   []hmem.PolicyName
	// seeds are the options seeds operations draw from; nil gives every
	// operation a seed of its own.
	seeds []uint64
}

func newSchedule(seed, salt uint64, workloads []string, optSeeds int) schedule {
	rng := xrand.New(xrand.Derive(seed, salt))
	s := schedule{seed: seed, salt: salt, workloads: shuffle(rng, workloads), policies: shuffle(rng, hmem.Policies())}
	for i := 0; i < optSeeds; i++ {
		s.seeds = append(s.seeds, rng.Uint64()|1)
	}
	return s
}

// coldSchedule spans every workload with a fresh options seed per
// operation, so every request builds a fresh engine.
func coldSchedule(seed uint64) schedule {
	return newSchedule(seed, saltCold, hmem.Workloads(), 0)
}

// warmWorkloads is warm's workload set: the high, medium and low
// memory-intensity trio plus a mix. The set decides how long the fill takes
// and how much memory it leaves, so it is the same for every seed.
var warmWorkloads = []string{"libquantum", "soplex", "astar", "mix1"}

// warmSchedule draws from warmSeeds x warmWorkloads x all policies, the
// shape space a warm set-up fills.
func warmSchedule(seed uint64) schedule {
	return newSchedule(seed, saltWarm, warmWorkloads, warmSeeds)
}

var classMix = []string{"evaluate", "evaluate", "evaluate", "evaluate", "evaluate", "evaluate", "evaluate", "compare", "compare", "batch"}

func (s schedule) op(i int) op {
	block := shuffle(xrand.New(xrand.Derive(s.seed, s.salt, 1, uint64(i/len(classMix)))), classMix)
	rng := xrand.New(xrand.Derive(s.seed, s.salt, 2, uint64(i)))
	o := op{class: block[i%len(classMix)], workload: s.workloads[i%len(s.workloads)]}
	if s.seeds == nil {
		o.seed = xrand.Derive(s.seed, s.salt, 3, uint64(i)) | 1
	} else {
		o.seed = s.seeds[rng.Intn(len(s.seeds))]
	}
	k := 1
	switch o.class {
	case "compare":
		k = 2 + rng.Intn(3)
	case "batch":
		k = 3 + rng.Intn(4)
	}
	first := i % len(s.policies)
	others := append(append([]hmem.PolicyName(nil), s.policies[:first]...), s.policies[first+1:]...)
	o.policies = append([]hmem.PolicyName{s.policies[first]}, shuffle(rng, others)[:k-1]...)
	return o
}

// shuffle returns a seeded permutation of xs.
func shuffle[T any](rng *xrand.RNG, xs []T) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// do sends one operation and returns its results in policy order.
func do(ctx context.Context, c *service.Client, o op) ([]hmem.Result, error) {
	switch o.class {
	case "evaluate":
		r, err := c.Evaluate(ctx, service.EvaluateRequest{Workload: o.workload, Policy: o.policies[0], Options: o.patch()})
		return []hmem.Result{r}, err
	case "compare":
		return c.Compare(ctx, service.CompareRequest{Workload: o.workload, Policies: o.policies, Options: o.patch()})
	}
	items := make([]service.BatchItem, len(o.policies))
	for i, p := range o.policies {
		items[i] = service.BatchItem{ID: strconv.Itoa(i), Workload: o.workload, Policy: p, Options: o.patch()}
	}
	lines, _, err := c.CollectBatch(ctx, service.BatchRequest{Items: items})
	if err != nil {
		return nil, err
	}
	out := make([]hmem.Result, 0, len(lines))
	for _, l := range lines {
		if l.Error != "" {
			return nil, fmt.Errorf("batch item %d: %s", l.Index, l.Error)
		}
		r, err := l.Evaluation()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// --- the closed loop ---

// loadRun is what one closed-loop measurement observed.
type loadRun struct {
	latMS   []float64
	doneAt  []time.Duration // completion times since the loop started
	rates   []float64       // completions in each whole second of the loop
	byClass map[string][]float64
	wall    time.Duration
	ops     int
	failed  int
	errs    []string // first few failures
	kept    [][]byte // canonical responses of the leading operations
	done    atomic.Int64
	mu      sync.Mutex
}

func (l *loadRun) e2e() e2e { return e2e{latMS: l.latMS, wall: l.wall, rates: l.rates} }

// absorb adds another measurement's samples to l (its retained responses
// are not carried over).
func (l *loadRun) absorb(o *loadRun) {
	l.latMS = append(l.latMS, o.latMS...)
	for c, v := range o.byClass {
		l.byClass[c] = append(l.byClass[c], v...)
	}
	l.wall += o.wall
	l.rates = append(l.rates, o.rates...)
	l.ops += o.ops
	l.failed += o.failed
	l.errs = append(l.errs, o.errs...)
}

func newLoadRun(keep int) *loadRun {
	return &loadRun{byClass: map[string][]float64{}, kept: make([][]byte, keep)}
}

// closedLoop runs workers clients, each sending its next operation only
// after the previous one returned, and records into run. It stops after
// maxOps operations or at until, whichever is first (zero values disable
// either). check validates a response (nil: correct); a failed request or
// a failed check counts as a failed operation. The canonical responses of
// the first len(run.kept) operations are retained for the digest.
func closedLoop(ctx context.Context, c *service.Client, run *loadRun, opAt func(int) op, maxOps int, until time.Time,
	check func(op, []hmem.Result) error) {
	keep := len(run.kept)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (maxOps > 0 && i >= maxOps) || (!until.IsZero() && time.Now().After(until)) || ctx.Err() != nil {
					return
				}
				o := opAt(i)
				t := time.Now()
				res, err := do(ctx, c, o)
				ms := float64(time.Since(t)) / 1e6
				if err == nil && check != nil {
					err = check(o, res)
				}
				var canon []byte
				if err == nil && i < keep {
					canon, err = json.Marshal(res)
				}
				run.mu.Lock()
				run.ops++
				run.latMS = append(run.latMS, ms)
				run.doneAt = append(run.doneAt, time.Since(start))
				run.byClass[o.class] = append(run.byClass[o.class], ms)
				if err != nil {
					run.failed++
					if len(run.errs) < 5 {
						run.errs = append(run.errs, fmt.Sprintf("op %d (%s %s): %v", i, o.class, o.workload, err))
					}
				}
				if i < keep {
					run.kept[i] = canon
				}
				run.mu.Unlock()
				run.done.Add(1)
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.rates = make([]float64, int(run.wall/time.Second))
	for _, t := range run.doneAt {
		if w := int(t / time.Second); w < len(run.rates) {
			run.rates[w]++
		}
	}
}

// digest fingerprints the leading operations' responses in op order.
func (l *loadRun) digest(opAt func(int) op) (string, bool) {
	n := len(l.kept)
	if l.ops < n || n == 0 {
		return "", false
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "%d\t%s\t%s\n", i, opAt(i).class, l.kept[i])
	}
	return fmt.Sprintf("ops=%d sha256=%s\n", n, hex.EncodeToString(h.Sum(nil))), true
}

// record folds a load run's failures and digest check into the outcome.
func (l *loadRun) record(out *outcome, cfg config, name string, opAt func(int) op) error {
	out.attempted += l.ops
	out.failed += l.failed
	for _, e := range l.errs {
		out.problem("%s", e)
	}
	got, ok := l.digest(opAt)
	if !ok {
		return nil
	}
	if cfg.updateRef {
		return writeReference(cfg, name, got)
	}
	want, has, err := readReference(cfg, name)
	if err != nil {
		return err
	}
	if has && got != want {
		out.failed++
		out.problem("%s response digest %q differs from the reference %q", name, got, want)
	}
	return nil
}

// --- traced measurement of a service run ---

// svcTrace is what the traced half observed around hmemd.
type svcTrace struct {
	before, after promSamples
	load          *loadRun
	rssOps, rssKB []float64
	engineMS      []float64
}

// traceLoad runs load (the traced half, recording into run) while
// sampling hmemd's RSS against run's completed operations and taking its
// CPU profile, with /metrics scraped before and after.
func traceLoad(ctx context.Context, d *daemon, profileSeconds int, run *loadRun, load func()) (*svcTrace, []byte, error) {
	tr := &svcTrace{load: run}
	var err error
	if tr.before, err = d.metrics(ctx); err != nil {
		return nil, nil, err
	}
	var (
		prof    []byte
		profErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		prof, profErr = httpGet(ctx, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.debug, profileSeconds))
	}()
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if kb, err := statusKB("/proc/"+d.pid+"/status", "VmRSS"); err == nil {
				tr.rssOps = append(tr.rssOps, float64(run.done.Load()))
				tr.rssKB = append(tr.rssKB, float64(kb))
			}
		}
	}()
	load()
	close(stop)
	wg.Wait()
	if profErr != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	if tr.after, err = d.metrics(ctx); err != nil {
		return nil, nil, err
	}
	return tr, prof, nil
}

// addServiceLayers reports hmemd's per-layer metrics from the traced half;
// a nil trace (the suite, which sends no requests) reports zeros.
func addServiceLayers(out *outcome, tr *svcTrace) {
	if tr == nil {
		tr = &svcTrace{load: newLoadRun(0)}
	}
	d := func(key string) float64 { return delta(tr.before, tr.after, key) }
	var evalServerMS float64
	for _, c := range classes {
		route := `{route="POST /v1/` + c + `"}`
		n := d("hmemd_request_duration_seconds_count" + route)
		ms := ratio(d("hmemd_request_duration_seconds_sum"+route)*1e3, n)
		if c == "evaluate" {
			evalServerMS = ms
		}
		out.add("service.server_ms."+c, ms, "ms", int(n))
		out.add("service.client_ms."+c, mean(tr.load.byClass[c]), "ms", len(tr.load.byClass[c]))
	}
	engineMS := mean(tr.engineMS)
	out.add("engine.evaluate_ms", engineMS, "ms", len(tr.engineMS))
	overhead := 0.0
	if evalServerMS > 0 {
		overhead = evalServerMS - engineMS
	}
	out.add("service.overhead_ms", overhead, "ms", len(tr.engineMS))
	hitRatio := func(hits, misses string) (float64, int) {
		h, m := d(hits), d(misses)
		return ratio(h, h+m), int(h + m)
	}
	v, n := hitRatio("hmemd_result_cache_hits_total", "hmemd_result_cache_misses_total")
	out.add("service.result_cache_hit_ratio", v, "ratio", n)
	v, n = hitRatio("hmemd_engine_memo_hits_total", "hmemd_engine_memo_misses_total")
	out.add("service.engine_memo_hit_ratio", v, "ratio", n)
	out.add("service.trace_opens", d("hmemd_trace_opens_total"), "count", 1)
	out.add("service.coalesce_hits", d("hmemd_coalesce_hits_total"), "count", 1)
	out.add("service.admission_shed", d("hmemd_admission_shed_total"), "count", 1)
	out.add("service.rss_kb_per_op", slope(tr.rssOps, tr.rssKB), "kB", len(tr.rssOps))
}
