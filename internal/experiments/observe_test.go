package experiments

import (
	"context"
	"sync"
	"testing"

	"hmem/internal/obs"
)

// spanLog collects every finished span except the per-interval sim.epoch
// spans, which are numerous and irrelevant to which runs were recorded.
type spanLog struct {
	mu    sync.Mutex
	spans map[uint64]obs.SpanData
}

func (l *spanLog) Export(sd obs.SpanData) error {
	if sd.Name == "sim.epoch" {
		return nil
	}
	l.mu.Lock()
	l.spans[sd.Span] = sd
	l.mu.Unlock()
	return nil
}

// unwrapped counts the spans named name that no experiments.profile,
// experiments.static or experiments.dynamic span encloses — the ones the
// annotation blocks record — keyed by their "policy" attribute (empty when
// absent).
func (l *spanLog) unwrapped(name string) map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int{}
	for _, sd := range l.spans {
		if sd.Name != name {
			continue
		}
		wrapped := false
		for p := sd.Parent; p != 0 && !wrapped; p = l.spans[p].Parent {
			switch l.spans[p].Name {
			case "experiments.profile", "experiments.static", "experiments.dynamic":
				wrapped = true
			}
		}
		if wrapped {
			continue
		}
		policy := ""
		for _, a := range sd.Attrs {
			if a.Key == "policy" {
				policy, _ = a.Val.(string)
			}
		}
		out[policy]++
	}
	return out
}

func (l *spanLog) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, sd := range l.spans {
		if sd.Name == name {
			n++
		}
	}
	return n
}

// TestAnnotationRunsAreObserved: the annotation and annotation+FC
// simulations are recorded like every other run — one sim.run and one
// trace.build span each, and one hmem_sim_runs_total count per simulation.
func TestAnnotationRunsAreObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers run full simulations")
	}
	opts := tinyCoalesceOpts()
	opts.Workloads = []string{"astar", "mcf"}
	r := mustRunner(t, opts)
	log := &spanLog{spans: map[uint64]obs.SpanData{}}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(obs.WithTracer(context.Background(), obs.NewTracer("annotation", log)), reg)
	runs := reg.Counter("hmem_sim_runs_total", "")
	w := len(opts.Workloads)

	if _, err := r.Figure16(ctx); err != nil {
		t.Fatal(err)
	}
	if got := log.unwrapped("sim.run"); got["static"] != w || len(got) != 1 {
		t.Fatalf("annotation sim.run spans outside profile/static runs = %v, want static:%d", got, w)
	}
	if got := log.unwrapped("trace.build"); got[""] != w {
		t.Fatalf("annotation trace.build spans = %v, want %d", got, w)
	}
	// Profiles, perf-focused static runs and annotation runs: 3 per workload.
	if n, spans := runs.Value(), log.count("sim.run"); n != uint64(3*w) || spans != 3*w {
		t.Fatalf("after Figure16: hmem_sim_runs_total = %d, sim.run spans = %d, want %d", n, spans, 3*w)
	}

	if _, err := r.ExtensionAnnotatedMigration(ctx); err != nil {
		t.Fatal(err)
	}
	if got := log.unwrapped("sim.run"); got["static"] != w || got["fc-reliability"] != w || len(got) != 2 {
		t.Fatalf("annotation sim.run spans = %v, want static:%d fc-reliability:%d", got, w, w)
	}
	if got := log.unwrapped("trace.build"); got[""] != 2*w {
		t.Fatalf("annotation trace.build spans = %v, want %d", got, 2*w)
	}
	// Plus the FC-only dynamic run and the annotation+FC run per workload.
	if n, spans := runs.Value(), log.count("sim.run"); n != uint64(5*w) || spans != 5*w {
		t.Fatalf("after the extension: hmem_sim_runs_total = %d, sim.run spans = %d, want %d", n, spans, 5*w)
	}
}
