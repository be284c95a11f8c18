package migration

import (
	"testing"

	"hmem/internal/core"
	"hmem/internal/sim"
)

// benchDecide measures one interval turnover for a mechanism: feeding a
// working set of accesses and taking the migration decision.
func benchDecide(b *testing.B, mig sim.Migrator) {
	placement := sim.NewPlacement(core.HBMDDRTopology(256<<12, 8192<<12))
	mig.Bind(placement.PageTable())
	const pages = 2048
	for pg := uint64(0); pg < pages; pg++ {
		placement.Lookup(pg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pg := uint64(0); pg < pages; pg++ {
			pi := placement.Intern(pg)
			mig.OnAccess(pi, pg%3 == 0, placement.InHBMIndex(pi))
		}
		in, out := mig.Decide(int64(i+1)*100000, placement)
		placement.Migrate(in, out)
	}
}

func BenchmarkMigratorDecide(b *testing.B) {
	b.Run("perf-baseline", func(b *testing.B) { benchDecide(b, NewPerf(100000)) })
	b.Run("full-counter", func(b *testing.B) { benchDecide(b, NewFullCounter(100000)) })
	b.Run("cross-counter", func(b *testing.B) { benchDecide(b, NewCrossCounter(100000, 4, 32)) })
}
