package migration

import (
	"testing"

	"hmem/internal/core"
	"hmem/internal/sim"
	"hmem/internal/workload"
)

func simConfig() sim.Config {
	return sim.Config{
		Topology:       core.HBMDDRTopology(4<<20, 512<<20),
		IssueWidth:     4,
		MaxOutstanding: 8,
	}
}

// feed binds m to placement's page table and feeds it a page's accesses.
// Bind is idempotent, so repeated feeds against the same placement are fine.
func feed(m sim.Migrator, placement *sim.Placement, page uint64, reads, writes int, inHBM bool) {
	m.Bind(placement.PageTable())
	pi := placement.PageTable().Intern(page)
	for i := 0; i < reads; i++ {
		m.OnAccess(pi, false, inHBM)
	}
	for i := 0; i < writes; i++ {
		m.OnAccess(pi, true, inHBM)
	}
}

func TestPerfMigratorSwapsHotForCold(t *testing.T) {
	p := NewPerf(1000)
	placement := sim.NewPlacement(core.HBMDDRTopology(2<<12, 16<<12))
	if err := placement.Preplace([]uint64{100, 101}, false); err != nil {
		t.Fatal(err)
	}
	// Page 100 in HBM is cold (1 access); page 5 in DDR is very hot.
	placement.Lookup(5)
	feed(p, placement, 100, 1, 0, true)
	feed(p, placement, 101, 50, 0, true) // hot resident stays
	feed(p, placement, 5, 60, 0, false)
	in, out := p.Decide(1000, placement)
	if len(in) != 1 || in[0] != 5 {
		t.Fatalf("in = %v, want [5]", in)
	}
	found := false
	for _, pg := range out {
		if pg == 101 {
			t.Fatal("hot resident 101 evicted")
		}
		if pg == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cold resident 100 not evicted: out = %v", out)
	}
}

func TestPerfMigratorEvictsUntouchedResidents(t *testing.T) {
	p := NewPerf(1000)
	placement := sim.NewPlacement(core.HBMDDRTopology(2<<12, 16<<12))
	if err := placement.Preplace([]uint64{100}, false); err != nil {
		t.Fatal(err)
	}
	placement.Lookup(5)
	feed(p, placement, 5, 10, 0, false) // page 100 never touched this interval
	_, out := p.Decide(1000, placement)
	if len(out) != 1 || out[0] != 100 {
		t.Fatalf("out = %v, want [100]", out)
	}
}

func TestPerfMigratorCountersResetEachInterval(t *testing.T) {
	p := NewPerf(1000)
	placement := sim.NewPlacement(core.HBMDDRTopology(2<<12, 16<<12))
	placement.Lookup(5)
	feed(p, placement, 5, 10, 0, false)
	p.Decide(1000, placement)
	// New interval: no accesses -> no decisions.
	in, out := p.Decide(2000, placement)
	if len(in) != 0 || len(out) != 0 {
		t.Fatalf("stale counters: in=%v out=%v", in, out)
	}
}

func TestPerfMigratorRespectsCapacityBudget(t *testing.T) {
	p := NewPerf(1000)
	placement := sim.NewPlacement(core.HBMDDRTopology(2<<12, 64<<12))
	// 10 hot DDR pages, empty HBM with 2 frames: at most 2 come in.
	for pg := uint64(0); pg < 10; pg++ {
		placement.Lookup(pg)
		feed(p, placement, pg, int(10+pg*10), 0, false)
	}
	in, _ := p.Decide(1000, placement)
	if len(in) > 2 {
		t.Fatalf("in = %v exceeds HBM capacity", in)
	}
}

func TestFullCounterKeepsHotLowRisk(t *testing.T) {
	f := NewFullCounter(1000)
	placement := sim.NewPlacement(core.HBMDDRTopology(4<<12, 64<<12))
	if err := placement.Preplace([]uint64{100, 101}, false); err != nil {
		t.Fatal(err)
	}
	placement.Lookup(5)
	placement.Lookup(6)
	// 100: hot + write-heavy (low risk) resident -> stays.
	feed(f, placement, 100, 20, 45, true)
	// 101: read-only (high risk) and below mean hotness -> evicted.
	feed(f, placement, 101, 50, 0, true)
	// 5: hot + write-heavy in DDR -> comes in.
	feed(f, placement, 5, 15, 45, false)
	// 6: read-only in DDR -> stays out.
	feed(f, placement, 6, 50, 0, false)
	in, out := f.Decide(1000, placement)
	if len(in) != 1 || in[0] != 5 {
		t.Fatalf("in = %v, want [5]", in)
	}
	wantOut := map[uint64]bool{101: true}
	for _, pg := range out {
		if !wantOut[pg] {
			t.Fatalf("unexpected eviction of %d (out=%v)", pg, out)
		}
	}
	if len(out) != 1 {
		t.Fatalf("out = %v, want [101]", out)
	}
}

func TestCrossCounterMEADrivesInMigrations(t *testing.T) {
	cc := NewCrossCounter(1000, 4, 8)
	placement := sim.NewPlacement(core.HBMDDRTopology(4<<12, 64<<12))
	placement.Lookup(5)
	cc.Bind(placement.PageTable())
	pi5 := placement.PageTable().Intern(5)
	for i := 0; i < 100; i++ {
		cc.OnAccess(pi5, false, false)
	}
	in, out := cc.Decide(1000, placement)
	if len(in) != 1 || in[0] != 5 {
		t.Fatalf("in = %v, want [5]", in)
	}
	if len(out) != 0 {
		t.Fatalf("no risk epoch yet, out = %v", out)
	}
}

func TestCrossCounterRiskEpochFlushesHighRisk(t *testing.T) {
	cc := NewCrossCounter(1000, 2, 8)
	placement := sim.NewPlacement(core.HBMDDRTopology(4<<12, 64<<12))
	if err := placement.Preplace([]uint64{100, 101}, false); err != nil {
		t.Fatal(err)
	}
	// 100 is read-heavy in HBM (high risk), 101 write-heavy (low risk).
	feed(cc, placement, 100, 50, 0, true)
	feed(cc, placement, 101, 5, 45, true)
	// Tick 1: no risk epoch (ratio 2).
	if _, out := cc.Decide(1000, placement); len(out) != 0 {
		t.Fatalf("early risk flush: %v", out)
	}
	// Tick 2: risk epoch fires; 100 must be pending-out and flushed.
	feed(cc, placement, 100, 50, 0, true)
	feed(cc, placement, 101, 5, 45, true)
	_, out := cc.Decide(2000, placement)
	foundBad, foundGood := false, false
	for _, pg := range out {
		if pg == 100 {
			foundBad = true
		}
		if pg == 101 {
			foundGood = true
		}
	}
	if !foundBad {
		t.Fatalf("high-risk resident not flushed: out = %v", out)
	}
	if foundGood {
		t.Fatalf("low-risk resident flushed: out = %v", out)
	}
}

func TestCrossCounterIsConcurrent(t *testing.T) {
	var m sim.Migrator = NewCrossCounter(1000, 2, 8)
	cm, ok := m.(interface{ MigratesConcurrently() bool })
	if !ok || !cm.MigratesConcurrently() {
		t.Fatal("CC must migrate concurrently")
	}
	// The OS-assisted mechanisms must not claim concurrency.
	for _, osm := range []sim.Migrator{NewPerf(1000), NewFullCounter(1000)} {
		if cm, ok := osm.(interface{ MigratesConcurrently() bool }); ok && cm.MigratesConcurrently() {
			t.Fatalf("%s must not be concurrent", osm.Name())
		}
	}
}

func TestMigratorNames(t *testing.T) {
	names := map[string]bool{}
	for _, m := range []sim.Migrator{NewPerf(1), NewFullCounter(1), NewCrossCounter(1, 1, 1)} {
		if m.Name() == "" || names[m.Name()] {
			t.Fatalf("bad or duplicate name %q", m.Name())
		}
		names[m.Name()] = true
		if m.IntervalCycles() != 1 {
			t.Fatalf("%s: interval = %d", m.Name(), m.IntervalCycles())
		}
	}
}

// End-to-end: the three mechanisms run inside the simulator and produce the
// paper's ordering on a real workload: perf-migration has the best IPC;
// the reliability-aware mechanisms trade a little IPC for less HBM-exposed
// AVF.
func TestMechanismsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end migration comparison")
	}
	cfg := simConfig()
	run := func(m sim.Migrator) sim.Result {
		spec, err := workload.SpecByName("soplex")
		if err != nil {
			t.Fatal(err)
		}
		suite, err := spec.Build(20000, 0xE2E)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, suite.Streams(), nil, false, m)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	perf := run(NewPerf(400000))
	fc := run(NewFullCounter(400000))
	cc := run(NewCrossCounter(8000, 50, 32))

	if perf.PagesMigrated == 0 || fc.PagesMigrated == 0 || cc.PagesMigrated == 0 {
		t.Fatalf("migrations: perf=%d fc=%d cc=%d", perf.PagesMigrated, fc.PagesMigrated, cc.PagesMigrated)
	}
	hbmAVF := func(r sim.Result) float64 {
		s := 0.0
		for _, p := range r.Snapshot {
			s += p.ByTier[1]
		}
		return s
	}
	if !(hbmAVF(fc) < hbmAVF(perf)) {
		t.Errorf("FC should expose less AVF in HBM than perf: %.4f vs %.4f", hbmAVF(fc), hbmAVF(perf))
	}
	t.Logf("IPC perf=%.3f fc=%.3f cc=%.3f; HBM-AVF perf=%.3f fc=%.3f cc=%.3f; migrations %d/%d/%d",
		perf.IPC, fc.IPC, cc.IPC, hbmAVF(perf), hbmAVF(fc), hbmAVF(cc),
		perf.PagesMigrated, fc.PagesMigrated, cc.PagesMigrated)
}
