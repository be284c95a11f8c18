package hmem

import (
	"context"
	"testing"

	"hmem/internal/experiments"
)

// benchSuite runs a four-workload Figure 5 sweep on a FRESH runner each
// iteration (nothing memoized across iterations) at the given worker count.
// Comparing BenchmarkSuiteSerial against BenchmarkSuiteParallel measures the
// wall-clock win of the concurrent experiment engine; both produce identical
// tables (see TestSuiteDeterministicAcrossParallelism in internal/experiments).
func benchSuite(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultOptions()
		opts.Workloads = []string{"astar", "mcf", "libquantum", "soplex"}
		opts.RecordsPerCore = 8000
		opts.FaultTrials = 2000
		opts.Parallel = parallel
		r, err := experiments.NewRunner(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Figure5(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteSerial(b *testing.B)   { benchSuite(b, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) } // 0 = NumCPU
