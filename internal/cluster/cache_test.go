package cluster

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// put stores val under key through the public Do path.
func put(t *testing.T, c *Cache, key, val string) {
	t.Helper()
	got, err := c.Do(context.Background(), key, func() ([]byte, error) { return []byte(val), nil })
	if err != nil || string(got) != val {
		t.Fatalf("Do(%s) = %q, %v", key, got, err)
	}
}

// waitForHits spins until n requests have joined existing work.
func waitForHits(c *Cache, n uint64) {
	for hits, _ := c.Stats(); hits < n; hits, _ = c.Stats() {
		runtime.Gosched()
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	// Entries "kN"+"vvvvvvvv" are 10 bytes each; three fit, a fourth evicts.
	c := Cache{budget: 30}
	put(t, &c, "k1", "vvvvvvvv")
	put(t, &c, "k2", "vvvvvvvv")
	put(t, &c, "k3", "vvvvvvvv")
	put(t, &c, "k1", "vvvvvvvv") // a hit: k1 becomes most recent
	put(t, &c, "k4", "vvvvvvvv")

	if _, ok := c.Peek("k2"); ok {
		t.Error("k2 (least recently used) survived eviction")
	}
	if c.Known("k2") {
		t.Error("Known(k2) after eviction")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, ok := c.Peek(k); !ok || !c.Known(k) {
			t.Errorf("%s evicted out of LRU order", k)
		}
	}
	if n, b := c.Size(); n != 3 || b != 30 {
		t.Errorf("Size = %d entries, %d bytes; want 3, 30", n, b)
	}
	if ev := c.Evictions(); ev != 1 {
		t.Errorf("Evictions = %d, want 1", ev)
	}
	// The evicted key is recomputed by its next requester.
	put(t, &c, "k2", "recomputed")
	if v, ok := c.Peek("k2"); !ok || string(v) != "recomputed" {
		t.Errorf("Peek(k2) after recompute = %q, %v", v, ok)
	}
}

func TestCacheBytesStayWithinBudget(t *testing.T) {
	const budget = 1000
	c := Cache{budget: budget}
	for i := 0; i < 500; i++ {
		put(t, &c, fmt.Sprintf("key-%03d", i), strings.Repeat("x", i%40))
		if _, b := c.Size(); b > budget {
			t.Fatalf("after %d inserts: %d bytes over the %d budget", i+1, b, budget)
		}
	}
	n, b := c.Size()
	if n == 0 || b == 0 || c.Evictions() == 0 {
		t.Fatalf("Size = %d/%d, evictions %d: expected a full cache that evicted", n, b, c.Evictions())
	}
	if _, ok := c.Peek("key-000"); ok {
		t.Error("oldest entry survived 500 inserts")
	}
}

func TestCacheOversizedEntryReturnedNotKept(t *testing.T) {
	c := Cache{budget: 16}
	put(t, &c, "small", "v")
	big := strings.Repeat("b", 64)
	put(t, &c, "big", big)
	if _, ok := c.Peek("big"); ok || c.Known("big") {
		t.Error("entry larger than the budget was kept")
	}
	if _, ok := c.Peek("small"); !ok {
		t.Error("an oversized entry evicted a resident one")
	}
	if c.Evictions() != 0 {
		t.Errorf("Evictions = %d, want 0", c.Evictions())
	}
}

func TestCacheNeverEvictsInFlight(t *testing.T) {
	c := Cache{budget: 30}
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.Do(context.Background(), "slow", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("vvvvvv"), nil
		})
	}()
	<-started
	// Churn well past the budget while "slow" computes.
	for i := 0; i < 20; i++ {
		put(t, &c, fmt.Sprintf("k%02d", i), "vvvvvvv")
	}
	if !c.Known("slow") {
		t.Fatal("in-flight entry forgotten under eviction pressure")
	}
	// A second requester joins the running computation instead of starting one.
	joined := make(chan string)
	go func() {
		v, _ := c.Do(context.Background(), "slow", func() ([]byte, error) { return []byte("duplicate"), nil })
		joined <- string(v)
	}()
	waitForHits(&c, 1)
	close(release)
	if v := <-joined; v != "vvvvvv" {
		t.Errorf("joiner got %q, want the in-flight result", v)
	}
	wg.Wait()
	if _, ok := c.Peek("slow"); !ok {
		t.Error("finished in-flight entry was not stored")
	}
	if _, b := c.Size(); b > 30 {
		t.Errorf("%d bytes over budget", b)
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	var c Cache
	started, release := make(chan struct{}), make(chan struct{})
	waiterErr := make(chan error)
	go func() {
		defer func() { _ = recover() }()
		_, _ = c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	go func() {
		_, err := c.Do(context.Background(), "k", func() ([]byte, error) { return nil, nil })
		waiterErr <- err
	}()
	waitForHits(&c, 1)
	close(release)
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("waiter err = %v, want the panic surfaced as an error", err)
	}
	put(t, &c, "k", "ok") // the key was forgotten, not poisoned
}
