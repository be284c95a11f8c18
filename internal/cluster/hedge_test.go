package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hmem/internal/breaker"
)

func TestHedgeDelayAdaptive(t *testing.T) {
	s := &Scheduler{StealAfter: 2 * time.Second}

	// Below hedgeMinSamples the fixed StealAfter is the fallback.
	if d := s.hedgeDelay(); d != 2*time.Second {
		t.Fatalf("delay with no samples = %v, want StealAfter", d)
	}
	// 10 samples at 400ms: p90 = 400ms, ×2 multiplier = 800ms — inside the
	// [StealAfter/4, StealAfter] = [500ms, 2s] clamp.
	for i := 0; i < 10; i++ {
		s.lat.observe(400 * time.Millisecond)
	}
	if d := s.hedgeDelay(); d != 800*time.Millisecond {
		t.Fatalf("adaptive delay = %v, want 800ms (2 × p90)", d)
	}
	// Fast shards cannot collapse the delay below StealAfter/4.
	for i := 0; i < latencyWindowCap; i++ {
		s.lat.observe(time.Millisecond)
	}
	if d := s.hedgeDelay(); d != 500*time.Millisecond {
		t.Fatalf("clamped-low delay = %v, want StealAfter/4", d)
	}
	// Slow shards cannot stretch it past StealAfter.
	for i := 0; i < latencyWindowCap; i++ {
		s.lat.observe(10 * time.Second)
	}
	if d := s.hedgeDelay(); d != 2*time.Second {
		t.Fatalf("clamped-high delay = %v, want StealAfter", d)
	}
	// Zero StealAfter disables hedging regardless of samples.
	s.StealAfter = 0
	if d := s.hedgeDelay(); d != 0 {
		t.Fatalf("delay with StealAfter=0 = %v, want 0", d)
	}
}

func TestHedgeBudget(t *testing.T) {
	s := &Scheduler{StealAfter: 2 * time.Second}

	// The burst allowance covers the first two hedges with no credit earned.
	if !s.spendHedge() || !s.spendHedge() {
		t.Fatal("burst allowance refused a hedge")
	}
	if s.spendHedge() {
		t.Fatal("third hedge granted with no earned credit")
	}
	// Three placements earn 0.75 of a token — still short.
	for i := 0; i < 3; i++ {
		s.earnHedge()
	}
	if s.spendHedge() {
		t.Fatal("hedge granted at 0.75 earned tokens")
	}
	// The fourth placement completes the token.
	s.earnHedge()
	if !s.spendHedge() {
		t.Fatal("hedge refused with a full earned token")
	}
	if s.spendHedge() {
		t.Fatal("hedge granted beyond the budget")
	}
}

// TestHedgeLogNamesPrimary pins the straggler named in the hedge log to the
// worker the primary dispatch actually went to. With the first ring owner's
// breaker open, the primary lands on the second candidate, and the hedge
// must report that worker — not the quarantined owner.
func TestHedgeLogNamesPrimary(t *testing.T) {
	g := NewRegistry(time.Minute)
	workers := map[string]*fakeWorker{}
	for _, id := range []string{"w1", "w2", "w3"} {
		workers[id] = newFakeWorker(t, id)
		workers[id].register(g)
	}
	sh := testShard(0)
	cands := g.Owners(sh.Key(), 3)
	if len(cands) != 3 {
		t.Fatalf("owners = %v, want 3 candidates", cands)
	}
	owner, primary, hedge := cands[0].ID, cands[1].ID, cands[2].ID

	breakers := &breaker.Set{Config: breaker.Config{Window: 1, MinSamples: 1}}
	done, ok := breakers.Get(owner).Allow()
	if !ok {
		t.Fatal("fresh breaker refused")
	}
	done(false)
	if st := breakers.Get(owner).State(); st != breaker.Open {
		t.Fatalf("owner breaker = %v, want open", st)
	}

	release := make(chan struct{})
	defer close(release)
	workers[primary].respond = func(sh Shard) ([]byte, error) {
		<-release
		return []byte(`{"from":"late"}`), nil
	}

	var mu sync.Mutex
	var logs []string
	s := &Scheduler{
		Registry:   g,
		StealAfter: 30 * time.Millisecond,
		Breakers:   breakers,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	body, err := s.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"from":"`+hedge+`"`) {
		t.Fatalf("body %s, want the hedge's result from %s", body, hedge)
	}
	mu.Lock()
	defer mu.Unlock()
	want := fmt.Sprintf("straggling on %s, hedging onto %s", primary, hedge)
	for _, l := range logs {
		if strings.Contains(l, want) {
			return
		}
	}
	t.Fatalf("hedge log %q missing; got %q", want, logs)
}
