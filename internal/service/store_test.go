package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hmem"
	"hmem/internal/cluster"
)

// TestEngineKeyCoversOptions fails when hmem.Options gains a field keyOf
// ignores: two option sets differing only in that field would share an
// engine and return each other's results.
func TestEngineKeyCoversOptions(t *testing.T) {
	base := hmem.Options{}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		o := base
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Uint64:
			v.SetUint(7)
		case reflect.String:
			v.SetString("x")
		case reflect.Slice:
			v.Set(reflect.ValueOf([]string{"x"}))
		default:
			t.Fatalf("Options.%s has kind %s; teach keyOf and this test about it", f.Name, v.Kind())
		}
		changed := keyOf(o) != keyOf(base)
		if f.Name == "Parallel" {
			if changed {
				t.Error("Parallel changes the engine key; it only changes scheduling")
			}
			continue
		}
		if !changed {
			t.Errorf("Options.%s does not change the engine key", f.Name)
		}
	}
}

// TestEngineTableConcurrent races requests on the engine table: concurrent
// requests for one option set share one engine, and a concurrent stream of
// distinct option sets leaves exactly maxEngines live with every other
// engine counted as evicted.
func TestEngineTableConcurrent(t *testing.T) {
	svc, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	resolve := func(seeds []uint64) []*hmem.Engine {
		out := make([]*hmem.Engine, len(seeds))
		var wg sync.WaitGroup
		for i, seed := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, _, err := svc.engineFor(&OptionsPatch{Seed: seed})
				if err != nil {
					t.Error(err)
				}
				out[i] = e
			}()
		}
		wg.Wait()
		return out
	}
	shared := resolve([]uint64{1, 1, 1, 1, 1, 1, 1, 1})
	for _, e := range shared {
		if e != shared[0] {
			t.Fatal("concurrent requests for one option set built two engines")
		}
	}
	distinct := make([]uint64, 3*maxEngines)
	for i := range distinct {
		distinct[i] = uint64(100 + i)
	}
	resolve(distinct)
	_, _, live, evictions := svc.engines.stats()
	if live != maxEngines || evictions != uint64(len(distinct)+1-maxEngines) {
		t.Fatalf("live %d, evictions %d; want %d live and %d evicted", live, evictions, maxEngines, len(distinct)+1-maxEngines)
	}
}

// TestComparePricesDuplicatePolicyOnce pins the batch pricing rule on
// /v1/compare: a policy listed twice is one simulation and costs one unit.
// With a 1.5-unit budget a double charge would push the node into shedding
// (held for a minute); a single charge leaves it healthy.
func TestComparePricesDuplicatePolicyOnce(t *testing.T) {
	cfg := tinyConfig()
	cfg.Admission = AdmissionConfig{Budget: 1.5, HealthHold: time.Minute}
	svc, c := newTestServer(t, cfg)
	ctx := context.Background()

	e, digest, err := svc.engineFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	dup := []hmem.PolicyName{hmem.PolicyDDROnly, hmem.PolicyDDROnly}
	if got := svc.freshCost(map[string]bool{}, digest, "astar", dup, e.Options()); got != 1 {
		t.Fatalf("duplicate-policy compare priced %v units, want 1", got)
	}
	if _, err := c.Compare(ctx, CompareRequest{Workload: "astar", Policies: dup}); err != nil {
		t.Fatal(err)
	}
	if st := svc.currentHealth(); st != healthOK {
		t.Fatalf("health after a 1-unit compare = %s, want ok (was it charged twice?)", healthName(st))
	}
	if got := svc.freshCost(map[string]bool{}, digest, "astar", dup, e.Options()); got != 0 {
		t.Errorf("stored result priced %v units, want 0", got)
	}
}

// scrapeValues reads the named unlabelled series from /metrics.
func scrapeValues(t *testing.T, baseURL string, names ...string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(metricsPage(t, baseURL), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		for _, n := range names {
			if name == n {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				out[n] = v
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			t.Fatalf("/metrics has no %s series", n)
		}
	}
	return out
}

// postRaw posts a JSON body and returns the 200 response bytes.
func postRaw(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

// TestHostileStreamStaysBounded drives unique option seeds at three times
// the engine cap — the load harness's cache-hostile shape — and checks the
// two bounds after every request: live engines within maxEngines, result
// bytes within the store's budget, while the engine-level counters on
// /metrics never decrease across evictions. Answers stay byte-identical to
// a fresh encoding, including for options whose engine was evicted.
func TestHostileStreamStaysBounded(t *testing.T) {
	svc, c := newTestServer(t, tinyConfig())
	patch := func(seed uint64) *OptionsPatch {
		return &OptionsPatch{RecordsPerCore: 200, FaultTrials: 20, Seed: seed}
	}
	request := func(path string, seed uint64, policies ...hmem.PolicyName) []byte {
		opts, _ := json.Marshal(patch(seed))
		if path == "/v1/evaluate" {
			return postRaw(t, c.BaseURL+path, fmt.Sprintf(`{"workload":"astar","policy":%q,"options":%s}`, policies[0], opts))
		}
		ps, _ := json.Marshal(policies)
		return postRaw(t, c.BaseURL+path, fmt.Sprintf(`{"workload":"astar","policies":%s,"options":%s}`, ps, opts))
	}
	counters := []string{"hmemd_engine_memo_hits_total", "hmemd_engine_memo_misses_total",
		"hmemd_trace_opens_total", "hmemd_coalesce_hits_total"}
	gauges := []string{"hmemd_engines", "hmemd_result_store_bytes", "hmemd_engine_evictions_total"}

	first := request("/v1/evaluate", 1, hmem.PolicyDDROnly)
	firstEngine, _, err := svc.engineFor(patch(1))
	if err != nil {
		t.Fatal(err)
	}
	prev := scrapeValues(t, c.BaseURL, counters...)
	for seed := uint64(2); seed <= 3*maxEngines; seed++ {
		if seed%3 == 0 {
			raw := request("/v1/compare", seed, hmem.PolicyDDROnly, hmem.PolicyBalanced)
			// The joined stored bytes must equal encoding the decoded value.
			var decoded struct{ Results []hmem.Result }
			if err := json.Unmarshal(raw, &decoded); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			_ = json.NewEncoder(&want).Encode(map[string]any{"results": decoded.Results})
			if !bytes.Equal(raw, want.Bytes()) {
				t.Fatalf("compare bytes differ from a fresh encoding:\n got %s\nwant %s", raw, want.Bytes())
			}
		} else {
			request("/v1/evaluate", seed, hmem.PolicyDDROnly)
		}
		now := scrapeValues(t, c.BaseURL, append(counters, gauges...)...)
		if now["hmemd_engines"] > maxEngines {
			t.Fatalf("seed %d: %v live engines, cap %d", seed, now["hmemd_engines"], maxEngines)
		}
		if now["hmemd_result_store_bytes"] > cluster.CacheBudget {
			t.Fatalf("seed %d: result store holds %v bytes, budget %d", seed, now["hmemd_result_store_bytes"], cluster.CacheBudget)
		}
		for _, n := range counters {
			if now[n] < prev[n] {
				t.Fatalf("seed %d: %s fell from %v to %v across an engine eviction", seed, n, prev[n], now[n])
			}
		}
		prev = now
	}
	if ev := scrapeValues(t, c.BaseURL, "hmemd_engine_evictions_total")["hmemd_engine_evictions_total"]; ev < 2*maxEngines {
		t.Fatalf("engine evictions = %v, want at least %d", ev, 2*maxEngines)
	}

	// Seed 1's engine is long evicted. Its stored answer is served again,
	// and a rebuilt engine computes the same bytes from scratch.
	if again := request("/v1/evaluate", 1, hmem.PolicyDDROnly); !bytes.Equal(again, first) {
		t.Fatalf("re-request after eviction:\n got %s\nwant %s", again, first)
	}
	rebuilt, _, err := svc.engineFor(patch(1))
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == firstEngine {
		t.Fatal("seed 1's engine was never evicted")
	}
	res, err := rebuilt.Evaluate(context.Background(), "astar", hmem.PolicyDDROnly)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := json.Marshal(res)
	if !bytes.Equal(append(fresh, '\n'), first) {
		t.Fatalf("rebuilt engine's answer differs:\n got %s\nwant %s", fresh, first)
	}
}
