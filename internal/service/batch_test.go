package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hmem"
)

// evaluateRaw posts one /v1/evaluate request and returns the raw response
// body bytes — the ground truth the batch path must reproduce byte for
// byte.
func evaluateRaw(t *testing.T, baseURL string, it BatchItem) []byte {
	t.Helper()
	body := fmt.Sprintf(`{"workload":%q,"policy":%q}`, it.Workload, it.Policy)
	resp, err := http.Post(baseURL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate %s/%s: status %d: %s", it.Workload, it.Policy, resp.StatusCode, raw)
	}
	return raw
}

// batchItemGrid builds n evaluate items cycling a small workload × policy
// grid, so large batches repeat keys (exercising in-batch dedup) while
// small ones stay distinct.
func batchItemGrid(n int) []BatchItem {
	workloads := []string{"astar", "mcf", "soplex", "milc"}
	policies := []hmem.PolicyName{hmem.PolicyDDROnly, hmem.PolicyPerfFocused, hmem.PolicyBalanced, hmem.PolicyWr2Ratio}
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{
			ID:       fmt.Sprintf("item-%d", i),
			Workload: workloads[i%len(workloads)],
			Policy:   policies[(i/len(workloads))%len(policies)],
		}
	}
	return items
}

// TestBatchDifferential is the batch path's anchor: a batch of N items is
// byte-identical to N sequential /v1/evaluate calls, across batch sizes and
// server parallelism. The sequential bodies are writeJSON output (marshal +
// newline), so the comparison is append(item.Result, '\n') — the exact
// bytes either path puts on the wire.
func TestBatchDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not a -short test")
	}
	sizes := []int{1, 16, 256}
	parallels := []int{1, runtime.NumCPU()}
	for _, par := range parallels {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("items=%d/parallel=%d", n, par), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.Defaults.RecordsPerCore = 1200
				cfg.Defaults.FaultTrials = 800
				cfg.Defaults.Parallel = par
				_, c := newTestServer(t, cfg)
				items := batchItemGrid(n)

				results, sum, err := c.CollectBatch(context.Background(), BatchRequest{Items: items})
				if err != nil {
					t.Fatal(err)
				}
				if sum.Items != n || sum.Errors != 0 {
					t.Fatalf("summary = %+v, want %d items, 0 errors", sum, n)
				}
				if len(results) != n {
					t.Fatalf("got %d result lines, want %d", len(results), n)
				}
				for i, res := range results {
					if res.Seq != i+1 || res.Index != i || res.ID != items[i].ID {
						t.Fatalf("line %d: seq=%d index=%d id=%q, want seq=%d index=%d id=%q",
							i, res.Seq, res.Index, res.ID, i+1, i, items[i].ID)
					}
					if res.Error != "" {
						t.Fatalf("item %d failed: %s", i, res.Error)
					}
					want := evaluateRaw(t, c.BaseURL, items[i])
					got := append(bytes.Clone(res.Result), '\n')
					if !bytes.Equal(got, want) {
						t.Fatalf("item %d (%s/%s): batch bytes differ from /v1/evaluate\nbatch: %s\nseq:   %s",
							i, items[i].Workload, items[i].Policy, got, want)
					}
				}
			})
		}
	}
}

// TestBatchCoalescing pins the tentpole's server half: K same-workload,
// different-policy items generate the trace exactly once (the plan
// materialization), every simulation replays it, and the results are still
// byte-identical to an uncoalesced server evaluating the same items one at
// a time.
func TestBatchCoalescing(t *testing.T) {
	policies := []hmem.PolicyName{hmem.PolicyPerfFocused, hmem.PolicyBalanced, hmem.PolicyWrRatio, hmem.PolicyWr2Ratio}
	items := make([]BatchItem, len(policies))
	for i, p := range policies {
		items[i] = BatchItem{ID: string(p), Workload: "astar", Policy: p}
	}

	svc, c := newTestServer(t, tinyConfig())
	results, sum, err := c.CollectBatch(context.Background(), BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary = %+v, want no errors", sum)
	}
	st := svc.TraceStats()
	if st.Opens != 1 {
		t.Fatalf("batch opened the trace %d times, want exactly 1 (coalesced plan)", st.Opens)
	}
	if st.CoalesceHits < uint64(len(items)) {
		t.Fatalf("coalesce hits = %d, want at least %d (one per item)", st.CoalesceHits, len(items))
	}

	// The counters are exported: the metrics page must carry both families.
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"hmemd_trace_opens_total 1", "hmemd_coalesce_hits_total", "hmemd_batch_requests_total 1"} {
		if !strings.Contains(string(page), family) {
			t.Errorf("metrics page missing %q", family)
		}
	}

	// Same items on a server that never coalesces (plain sequential
	// /v1/evaluate): bytes must match — coalescing is invisible in results.
	_, plain := newTestServer(t, tinyConfig())
	for i, res := range results {
		want := evaluateRaw(t, plain.BaseURL, items[i])
		got := append(bytes.Clone(res.Result), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("policy %s: coalesced bytes differ from uncoalesced evaluation", items[i].Policy)
		}
	}
}

// TestBatchCompareItems checks the compare flavor: a Policies item carries
// the same payload /v1/compare would produce, and mixes freely with
// evaluate items in one batch.
func TestBatchCompareItems(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	ctx := context.Background()
	items := []BatchItem{
		{ID: "cmp", Workload: "astar", Policies: []hmem.PolicyName{hmem.PolicyDDROnly, hmem.PolicyBalanced}},
		{ID: "one", Workload: "astar", Policy: hmem.PolicyDDROnly},
	}
	results, sum, err := c.CollectBatch(ctx, BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Items != 2 || sum.Errors != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	cmp, err := results[0].Comparisons()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 2 {
		t.Fatalf("compare item returned %d results, want 2", len(cmp))
	}
	single, err := results[1].Evaluation()
	if err != nil {
		t.Fatal(err)
	}
	// The compare item's ddr-only entry and the evaluate item are the same
	// cached computation.
	if !reflect.DeepEqual(cmp[0], single) {
		t.Fatal("compare and evaluate disagree on the same workload × policy")
	}
}

// TestBatchThroughput is the acceptance ratio: on a same-workload
// multi-policy profile, the batch path over a pooled client must clear at
// least 2× the ops/sec of one-request-per-round-trip sequential
// evaluation. Steady state (warm result cache) is measured, so the ratio
// isolates the request path — pipelining N items over one request versus N
// round trips — rather than simulation time. Each round times one
// sequential pass and one batch back to back, alternating which goes first,
// and the test takes the median of the per-round ratios: a scheduler or GC
// stall on a small machine then skews one round, not the verdict.
func TestBatchThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is not a -short test")
	}
	policies := []hmem.PolicyName{
		hmem.PolicyDDROnly, hmem.PolicyPerfFocused, hmem.PolicyReliabilityFocused,
		hmem.PolicyBalanced, hmem.PolicyWrRatio, hmem.PolicyWr2Ratio,
		hmem.PolicyPerfMigration, hmem.PolicyFCMigration, hmem.PolicyCCMigration,
		hmem.PolicyAnnotation,
	}
	items := make([]BatchItem, len(policies))
	for i, p := range policies {
		items[i] = BatchItem{ID: string(p), Workload: "mcf", Policy: p}
	}
	ctx := context.Background()

	_, base := newTestServer(t, tinyConfig())
	pooled := NewPooledClient(base.BaseURL, 8)
	// Warm the result cache: after this, both sides serve identical cached
	// evaluations and differ only in transport.
	if _, sum, err := pooled.CollectBatch(ctx, BatchRequest{Items: items}); err != nil || sum.Errors != 0 {
		t.Fatalf("warm-up batch: err=%v summary=%+v", err, sum)
	}

	timed := func(run func() error) time.Duration {
		start := time.Now()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	sequential := func() error {
		for _, it := range items {
			if _, err := pooled.Evaluate(ctx, EvaluateRequest{Workload: it.Workload, Policy: it.Policy}); err != nil {
				return err
			}
		}
		return nil
	}
	batch := func() error {
		_, sum, err := pooled.CollectBatch(ctx, BatchRequest{Items: items})
		if err != nil {
			return err
		}
		if sum.Errors != 0 {
			return fmt.Errorf("batch summary: %+v", sum)
		}
		return nil
	}

	const rounds = 15
	ratios := make([]float64, rounds)
	var seqTotal, batchTotal time.Duration
	for r := range ratios {
		var seq, bat time.Duration
		if r%2 == 0 {
			seq = timed(sequential)
			bat = timed(batch)
		} else {
			bat = timed(batch)
			seq = timed(sequential)
		}
		ratios[r] = float64(seq) / float64(bat)
		seqTotal += seq
		batchTotal += bat
	}
	slices.Sort(ratios)
	ratio := ratios[rounds/2]

	ops := float64(len(items) * rounds)
	t.Logf("median speedup %.2fx over %d alternated rounds (range %.2fx-%.2fx); sequential %.0f ops/s, batch %.0f ops/s",
		ratio, rounds, ratios[0], ratios[rounds-1], ops/seqTotal.Seconds(), ops/batchTotal.Seconds())
	if ratio < 2 {
		t.Fatalf("median batch speedup %.2fx, acceptance floor is 2x (per-round ratios %.2f)", ratio, ratios)
	}
}

// TestBatchValidation: malformed batches 400 before any work or admission
// charge.
func TestBatchValidation(t *testing.T) {
	_, c := newTestServer(t, tinyConfig())
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{nope`},
		{"empty items", `{"items":[]}`},
		{"unknown field", `{"items":[{"workload":"astar","policy":"ddr-only"}],"bogus":1}`},
		{"trailing data", `{"items":[{"workload":"astar","policy":"ddr-only"}]}{}`},
		{"no policy", `{"items":[{"workload":"astar"}]}`},
		{"both policy and policies", `{"items":[{"workload":"astar","policy":"ddr-only","policies":["balanced"]}]}`},
		{"unknown workload", `{"items":[{"workload":"nope","policy":"ddr-only"}]}`},
		{"unknown policy", `{"items":[{"workload":"astar","policy":"nope"}]}`},
		{"bad option patch", `{"items":[{"workload":"astar","policy":"ddr-only","options":{"topology":"nope"}}]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(c.BaseURL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Oversized item count is refused by the decoder, not the body limit.
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"workload":"astar","policy":"ddr-only"}`)
	}
	sb.WriteString(`]}`)
	resp, err := http.Post(c.BaseURL+"/v1/batch", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}
