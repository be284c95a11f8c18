package migration

import (
	"reflect"
	"sort"
	"testing"

	"hmem/internal/core"
	"hmem/internal/memsim"
	"hmem/internal/sim"
	"hmem/internal/trace"
	"hmem/internal/xrand"
)

// This file is the differential test locking in the dense-index refactor:
// the pre-refactor, map-keyed bookkeeping is preserved here as a reference
// implementation, and every migration mechanism is run on identical random
// traces through both the flat production path and the reference path. The
// two runs must agree on every migration decision and on the final
// SER-relevant outputs (AVF snapshot, IPC, migrated-page count).

// ---- Reference (map-backed) counter structures ------------------------------

// refCounters is the pre-refactor FullCounters: a page-id-keyed map of
// saturating read/write counters, reallocated on every interval reset.
type refCounters struct {
	max    uint32
	counts map[uint64]*refCount
}

type refCount struct {
	reads, writes uint32
}

func newRefCounters(bits int) *refCounters {
	return &refCounters{max: 1<<uint(bits) - 1, counts: make(map[uint64]*refCount)}
}

func (r *refCounters) Observe(page uint64, write bool) {
	c := r.counts[page]
	if c == nil {
		c = &refCount{}
		r.counts[page] = c
	}
	if write {
		if c.writes < r.max {
			c.writes++
		}
	} else {
		if c.reads < r.max {
			c.reads++
		}
	}
}

func (r *refCounters) Snapshot() []core.PageStats {
	out := make([]core.PageStats, 0, len(r.counts))
	for page, c := range r.counts {
		out = append(out, core.PageStats{Page: page, Reads: uint64(c.reads), Writes: uint64(c.writes)})
	}
	core.SortByPage(out)
	return out
}

func (r *refCounters) Reset() { r.counts = make(map[uint64]*refCount) }

// refMEA is the pre-refactor page-id-keyed Misra-Gries summary with the
// same decrement-all semantics as the flat tracker: a miss with a full
// table decrements every entry, evicts those that reach zero, and does NOT
// adopt the new page.
type refMEA struct {
	k      int
	counts map[uint64]uint64
}

func newRefMEA(k int) *refMEA { return &refMEA{k: k, counts: make(map[uint64]uint64)} }

func (m *refMEA) Observe(page uint64) {
	if _, ok := m.counts[page]; ok {
		m.counts[page]++
		return
	}
	if len(m.counts) < m.k {
		m.counts[page] = 1
		return
	}
	for p, c := range m.counts {
		if c <= 1 {
			delete(m.counts, p)
		} else {
			m.counts[p] = c - 1
		}
	}
}

// Hot returns the tracked set ordered by descending count, ties by page id —
// the deterministic ranking the id-keyed summary produced directly.
func (m *refMEA) Hot() []pageCount {
	out := make([]pageCount, 0, len(m.counts))
	for p, c := range m.counts {
		out = append(out, pageCount{page: p, count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].page < out[j].page
	})
	return out
}

func (m *refMEA) Reset() { m.counts = make(map[uint64]uint64) }

// ---- Reference migrators ----------------------------------------------------

// refPerf mirrors Perf.Decide on the map-backed counters.
type refPerf struct {
	interval int64
	counters *refCounters
	pt       *core.PageTable
}

func (p *refPerf) Name() string            { return "ref-perf" }
func (p *refPerf) Bind(pt *core.PageTable) { p.pt = pt }
func (p *refPerf) IntervalCycles() int64   { return p.interval }
func (p *refPerf) OnAccess(pi core.PageIndex, write bool, _ bool) {
	p.counters.Observe(p.pt.ID(pi), write)
}

func (p *refPerf) Decide(_ int64, placement *sim.Placement) (in, out []uint64) {
	snap := p.counters.Snapshot()
	defer p.counters.Reset()
	if len(snap) == 0 {
		return nil, nil
	}
	mean := core.MeanHotness(snap)
	counts := make(map[uint64]uint64, len(snap))
	for _, s := range snap {
		counts[s.Page] = s.Accesses()
	}
	var inCand []core.PageStats
	for _, s := range snap {
		if float64(s.Accesses()) > mean && !placement.InHBM(s.Page) {
			inCand = append(inCand, s)
		}
	}
	in = core.PerfFocused{}.Select(inCand, len(inCand))
	var outCand []core.PageStats
	for _, page := range placement.HBMPages() {
		if placement.Pinned(page) {
			continue
		}
		c := counts[page]
		if float64(c) <= mean {
			outCand = append(outCand, core.PageStats{Page: page, Reads: c})
		}
	}
	out = pagesByHotnessAsc(outCand)
	maxSwap := int(placement.HBMCapacity() / 4)
	if maxSwap < 1 {
		maxSwap = 1
	}
	if len(out) > maxSwap {
		out = out[:maxSwap]
	}
	budget := len(out) + placement.HBMFreePages()
	if len(in) > budget {
		in = in[:budget]
	}
	if len(in) > maxSwap {
		in = in[:maxSwap]
	}
	return in, out
}

// refFC mirrors FullCounter.Decide on the map-backed counters.
type refFC struct {
	interval int64
	counters *refCounters
	pt       *core.PageTable
}

func (f *refFC) Name() string            { return "ref-fc" }
func (f *refFC) Bind(pt *core.PageTable) { f.pt = pt }
func (f *refFC) IntervalCycles() int64   { return f.interval }
func (f *refFC) OnAccess(pi core.PageIndex, write bool, _ bool) {
	f.counters.Observe(f.pt.ID(pi), write)
}

func (f *refFC) Decide(_ int64, placement *sim.Placement) (in, out []uint64) {
	snap := f.counters.Snapshot()
	defer f.counters.Reset()
	if len(snap) == 0 {
		return nil, nil
	}
	meanHot := core.MeanHotness(snap)
	meanRisk := meanWrRatio(snap)
	lowRisk := func(s core.PageStats) bool { return s.WrRatio() >= meanRisk }
	evictRisk := func(s core.PageStats) bool { return s.WrRatio() < 0.5*meanRisk }
	stats := make(map[uint64]core.PageStats, len(snap))
	for _, s := range snap {
		stats[s.Page] = s
	}
	var inCand []core.PageStats
	for _, s := range snap {
		if float64(s.Accesses()) > meanHot && lowRisk(s) && !placement.InHBM(s.Page) {
			inCand = append(inCand, s)
		}
	}
	in = core.PerfFocused{}.Select(inCand, len(inCand))
	var outCand []core.PageStats
	for _, page := range placement.HBMPages() {
		if placement.Pinned(page) {
			continue
		}
		s := stats[page]
		s.Page = page
		if float64(s.Accesses()) <= meanHot || evictRisk(s) {
			outCand = append(outCand, s)
		}
	}
	out = pagesByHotnessAsc(outCand)
	maxSwap := int(placement.HBMCapacity() / 4)
	if maxSwap < 1 {
		maxSwap = 1
	}
	if len(out) > maxSwap {
		out = out[:maxSwap]
	}
	budget := len(out) + placement.HBMFreePages()
	if len(in) > budget {
		in = in[:budget]
	}
	if len(in) > maxSwap {
		in = in[:maxSwap]
	}
	return in, out
}

// refCC mirrors CrossCounter.Decide on the map-backed MEA summary and risk
// counters, including the blacklist and pending-eviction machinery.
type refCC struct {
	meaInterval int64
	fcRatio     int
	tick        int
	perf        *refMEA
	risk        *refCounters
	pt          *core.PageTable
	pendingOut  []uint64
	blocked     map[uint64]int
	epoch       int
	blockEpochs int
	evictFactor float64
}

func newRefCC(meaIntervalCycles int64, fcRatio int, meaEntries int) *refCC {
	return &refCC{
		meaInterval: meaIntervalCycles,
		fcRatio:     fcRatio,
		perf:        newRefMEA(meaEntries),
		risk:        newRefCounters(16),
		blocked:     make(map[uint64]int),
		blockEpochs: 4,
		evictFactor: 0.5,
	}
}

func (c *refCC) Name() string               { return "ref-cc" }
func (c *refCC) Bind(pt *core.PageTable)    { c.pt = pt }
func (c *refCC) IntervalCycles() int64      { return c.meaInterval }
func (c *refCC) MigratesConcurrently() bool { return true }
func (c *refCC) OnAccess(pi core.PageIndex, write bool, inHBM bool) {
	page := c.pt.ID(pi)
	c.perf.Observe(page)
	if inHBM {
		c.risk.Observe(page, write)
	}
}

func (c *refCC) Decide(_ int64, placement *sim.Placement) (in, out []uint64) {
	c.tick++
	epoch := c.tick%c.fcRatio == 0
	if epoch {
		c.epoch++
		c.pendingOut = c.riskEpoch(placement)
		if c.blockEpochs > 0 {
			for _, page := range c.pendingOut {
				c.blocked[page] = c.epoch
			}
		}
		for page, at := range c.blocked {
			if c.epoch-at >= c.blockEpochs {
				delete(c.blocked, page)
			}
		}
	}
	for _, e := range c.perf.Hot() {
		if _, bad := c.blocked[e.page]; !bad && !placement.InHBM(e.page) {
			in = append(in, e.page)
		}
	}
	c.perf.Reset()
	if epoch {
		out = c.drainPending(len(c.pendingOut))
	} else {
		need := len(in) - placement.HBMFreePages()
		if need < 0 {
			need = 0
		}
		out = c.drainPending(need)
	}
	budget := placement.HBMFreePages() + len(out)
	if len(in) > budget {
		in = in[:budget]
	}
	return in, out
}

func (c *refCC) drainPending(n int) []uint64 {
	if n > len(c.pendingOut) {
		n = len(c.pendingOut)
	}
	out := c.pendingOut[:n]
	c.pendingOut = c.pendingOut[n:]
	return out
}

func (c *refCC) riskEpoch(placement *sim.Placement) []uint64 {
	snap := c.risk.Snapshot()
	defer c.risk.Reset()
	if len(snap) == 0 {
		return nil
	}
	meanRisk := meanWrRatio(snap)
	stats := make(map[uint64]core.PageStats, len(snap))
	for _, s := range snap {
		stats[s.Page] = s
	}
	var outCand []core.PageStats
	for _, page := range placement.HBMPages() {
		if placement.Pinned(page) {
			continue
		}
		s, touched := stats[page]
		s.Page = page
		if !touched || s.WrRatio() < c.evictFactor*meanRisk {
			outCand = append(outCand, s)
		}
	}
	return pagesByHotnessAsc(outCand)
}

// ---- Decision recording -----------------------------------------------------

type decision struct {
	in, out []uint64
}

// decisionRecorder wraps a migrator and captures every Decide outcome. It
// forwards the MigratesConcurrently capability so CC keeps its pause-free
// migration semantics under recording.
type decisionRecorder struct {
	m         sim.Migrator
	decisions []decision
}

func (r *decisionRecorder) Name() string                                { return r.m.Name() }
func (r *decisionRecorder) Bind(pt *core.PageTable)                     { r.m.Bind(pt) }
func (r *decisionRecorder) IntervalCycles() int64                       { return r.m.IntervalCycles() }
func (r *decisionRecorder) OnAccess(pi core.PageIndex, w bool, in bool) { r.m.OnAccess(pi, w, in) }

func (r *decisionRecorder) MigratesConcurrently() bool {
	if cm, ok := r.m.(interface{ MigratesConcurrently() bool }); ok {
		return cm.MigratesConcurrently()
	}
	return false
}

func (r *decisionRecorder) Decide(now int64, placement *sim.Placement) (in, out []uint64) {
	in, out = r.m.Decide(now, placement)
	r.decisions = append(r.decisions, decision{
		in:  append([]uint64(nil), in...),
		out: append([]uint64(nil), out...),
	})
	return in, out
}

// ---- The differential runs --------------------------------------------------

// diffTrace builds one random multi-core trace: pages drawn from a working
// set larger than HBM, one-third writes, short gaps.
func diffTrace(seed uint64, cores, records int) [][]trace.Record {
	rng := xrand.New(seed)
	out := make([][]trace.Record, cores)
	for c := range out {
		recs := make([]trace.Record, records)
		for i := range recs {
			kind := trace.Read
			switch rng.Intn(3) {
			case 0:
				kind = trace.Write
			case 1:
				if rng.Intn(4) == 0 {
					kind = trace.InstFetch
				}
			}
			recs[i] = trace.Record{
				Gap:  uint32(rng.Intn(12)),
				Kind: kind,
				Addr: rng.Uint64n(300)*trace.PageSize +
					rng.Uint64n(trace.LinesPerPage)*trace.LineSize,
			}
		}
		out[c] = recs
	}
	return out
}

func diffRun(t *testing.T, recs [][]trace.Record, mig *decisionRecorder) sim.Result {
	t.Helper()
	cfg := sim.Config{
		Topology:       core.HBMDDRTopology(256<<10, 16<<20), // 64 pages: far smaller than the working set
		IssueWidth:     4,
		MaxOutstanding: 8,
	}
	streams := make([]trace.Stream, len(recs))
	for i, r := range recs {
		streams[i] = trace.NewSliceStream(r)
	}
	res, err := sim.Run(cfg, streams, []uint64{0, 1, 2, 3}, true, mig)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return res
}

// TestDifferentialFlatVsMapBacked runs each mechanism on identical random
// traces through the flat production path and the map-backed reference and
// requires byte-identical decisions and final metrics.
// diffRunTopo is diffRun over a three-tier topology: a small DRAM middle
// tier that forces first touches to spill into the NVM capacity tier, with
// the same 64-page fast HBM tier as the two-tier harness.
func diffRunTopo(t *testing.T, recs [][]trace.Record, mig *decisionRecorder) sim.Result {
	t.Helper()
	cfg := sim.Config{
		Topology: &core.Topology{
			Name: "diff-3tier",
			Tiers: []core.TierDesc{
				{Name: "NVM", Mem: memsim.NVM(16 << 20), FITPerGB: 900, WriteBudget: 64},
				{Name: "DRAM", Mem: memsim.DDR3(1 << 20), FITPerGB: 66},
				{Name: "HBM", Mem: memsim.HBM(256 << 10), FITPerGB: 350},
			},
			FastTier:   2,
			AllocOrder: []int{1, 0},
		},
		IssueWidth:     4,
		MaxOutstanding: 8,
	}
	streams := make([]trace.Stream, len(recs))
	for i, r := range recs {
		streams[i] = trace.NewSliceStream(r)
	}
	res, err := sim.Run(cfg, streams, []uint64{0, 1, 2, 3}, true, mig)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return res
}

// TestDifferentialThreeTier runs the same flat-vs-reference comparison over
// the three-tier spill topology: the mechanisms only see fast-tier residency,
// so their decisions must be identical to the map-backed reference there too.
func TestDifferentialThreeTier(t *testing.T) {
	cases := []struct {
		name string
		mkN  func() sim.Migrator
		mkR  func() sim.Migrator
	}{
		{"full-counter", func() sim.Migrator { return NewFullCounter(20000) },
			func() sim.Migrator { return &refFC{interval: 20000, counters: newRefCounters(8)} }},
		{"cross-counter", func() sim.Migrator { return NewCrossCounter(5000, 4, 8) },
			func() sim.Migrator { return newRefCC(5000, 4, 8) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			recs := diffTrace(7, 2, 6000)
			newRec := &decisionRecorder{m: tc.mkN()}
			refRec := &decisionRecorder{m: tc.mkR()}
			got := diffRunTopo(t, recs, newRec)
			want := diffRunTopo(t, recs, refRec)

			if len(newRec.decisions) != len(refRec.decisions) {
				t.Fatalf("%d decisions vs reference %d", len(newRec.decisions), len(refRec.decisions))
			}
			for i := range newRec.decisions {
				n, r := newRec.decisions[i], refRec.decisions[i]
				if !reflect.DeepEqual(n.in, r.in) || !reflect.DeepEqual(n.out, r.out) {
					t.Fatalf("decision %d diverges:\n flat in=%v out=%v\n  ref in=%v out=%v",
						i, n.in, n.out, r.in, r.out)
				}
			}
			if got.IPC != want.IPC || got.Cycles != want.Cycles {
				t.Errorf("IPC/cycles diverge: %v/%d vs %v/%d", got.IPC, got.Cycles, want.IPC, want.Cycles)
			}
			if !reflect.DeepEqual(got.Snapshot, want.Snapshot) {
				t.Errorf("AVF snapshots diverge (%d vs %d pages)", len(got.Snapshot), len(want.Snapshot))
			}
			if !reflect.DeepEqual(got.Endurance, want.Endurance) {
				t.Errorf("endurance diverges: %+v vs %+v", got.Endurance, want.Endurance)
			}
			if len(got.Endurance) != 1 || got.Endurance[0].TotalWrites == 0 {
				t.Errorf("three-tier run recorded no NVM wear: %+v", got.Endurance)
			}
		})
	}
}

func TestDifferentialFlatVsMapBacked(t *testing.T) {
	cases := []struct {
		name string
		mkN  func() sim.Migrator
		mkR  func() sim.Migrator
	}{
		{"perf-baseline", func() sim.Migrator { return NewPerf(20000) },
			func() sim.Migrator { return &refPerf{interval: 20000, counters: newRefCounters(8)} }},
		{"full-counter", func() sim.Migrator { return NewFullCounter(20000) },
			func() sim.Migrator { return &refFC{interval: 20000, counters: newRefCounters(8)} }},
		{"cross-counter", func() sim.Migrator { return NewCrossCounter(5000, 4, 8) },
			func() sim.Migrator { return newRefCC(5000, 4, 8) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				recs := diffTrace(seed, 2, 6000)
				newRec := &decisionRecorder{m: tc.mkN()}
				refRec := &decisionRecorder{m: tc.mkR()}
				got := diffRun(t, recs, newRec)
				want := diffRun(t, recs, refRec)

				if len(newRec.decisions) != len(refRec.decisions) {
					t.Fatalf("seed %d: %d decisions vs reference %d",
						seed, len(newRec.decisions), len(refRec.decisions))
				}
				for i := range newRec.decisions {
					n, r := newRec.decisions[i], refRec.decisions[i]
					if !reflect.DeepEqual(n.in, r.in) || !reflect.DeepEqual(n.out, r.out) {
						t.Fatalf("seed %d: decision %d diverges:\n flat in=%v out=%v\n  ref in=%v out=%v",
							seed, i, n.in, n.out, r.in, r.out)
					}
				}
				if got.IPC != want.IPC {
					t.Errorf("seed %d: IPC %v vs reference %v", seed, got.IPC, want.IPC)
				}
				if got.Cycles != want.Cycles {
					t.Errorf("seed %d: cycles %d vs reference %d", seed, got.Cycles, want.Cycles)
				}
				if got.PagesMigrated != want.PagesMigrated {
					t.Errorf("seed %d: migrated %d vs reference %d", seed, got.PagesMigrated, want.PagesMigrated)
				}
				// The SER score is a deterministic function of the snapshot;
				// identical snapshots pin identical SER for any FIT setting.
				if !reflect.DeepEqual(got.Snapshot, want.Snapshot) {
					t.Errorf("seed %d: AVF snapshots diverge (%d vs %d pages)",
						seed, len(got.Snapshot), len(want.Snapshot))
				}
			}
		})
	}
}
