package sim

import (
	"reflect"
	"sync"
	"testing"
)

// TestPooledRunsMatchAcrossOrderAndConcurrency runs simulations of
// different footprints and tier counts, which share recycled AVF trackers,
// first one after another and then from several goroutines at once in a
// rotated order, and requires every run to give the same Result each time.
func TestPooledRunsMatchAcrossOrderAndConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	type job struct {
		workload  string
		records   int
		threeTier bool
	}
	jobs := []job{{"astar", 1500, false}, {"mcf", 800, true}, {"gcc", 400, false}, {"soplex", 1200, true}}
	run := func(j job) (Result, error) {
		cfg := testConfig()
		if j.threeTier {
			cfg.Topology = threeTierTopo(64<<10, 1024, 256)
		}
		return Run(cfg, buildSuite(t, j.workload, j.records).Streams(), nil, false, nil)
	}
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		res, err := run(j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const workers = 4
	got := make([][]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]Result, len(jobs))
			for k := range jobs {
				i := (k + w) % len(jobs)
				res, err := run(jobs[i])
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i, j := range jobs {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Fatalf("worker %d: %s (three-tier %v) differs from its serial run", w, j.workload, j.threeTier)
			}
		}
	}
}

// TestPopFrontKeepsCapacity pins why the read window and write ring pop in
// place: the backing array keeps its full capacity for later appends.
func TestPopFrontKeepsCapacity(t *testing.T) {
	s := append(make([]int, 0, 8), 1, 2, 3, 4)
	s = popFront(s, 1)
	s = popFront(s, 2)
	if !reflect.DeepEqual(s, []int{4}) || cap(s) != 8 {
		t.Fatalf("popFront left %v with capacity %d; want [4] with 8", s, cap(s))
	}
}
