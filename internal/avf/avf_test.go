package avf

import (
	"math"
	"testing"
	"testing/quick"

	"hmem/internal/xrand"
)

// The default topology's tier indices (core.DefaultTopology).
const (
	tierDDR Tier = 0
	tierHBM Tier = 1
)

// identityIDs is the dense index→page-id mapping for tests that use small
// integers as both: index i is page id i.
func identityIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

// lineAVF runs a sequence of (time, write) events on a single line and
// returns the page AVF scaled back up to line granularity.
func lineAVF(t *testing.T, total int64, events []struct {
	at    int64
	write bool
}) float64 {
	t.Helper()
	tr := NewTracker(2)
	for _, e := range events {
		tr.Access(0, 0, e.at, e.write, tierDDR)
	}
	snap := tr.Snapshot(total, identityIDs(1))
	if len(snap) != 1 {
		t.Fatalf("expected 1 page, got %d", len(snap))
	}
	return snap[0].AVF * 64 // undo the per-page line averaging
}

func TestFigure3aUnmaskedReads(t *testing.T) {
	// WR1@0, RD1@30, RD2@50, WR2@80, total 100.
	// ACE: [0,30] + [30,50] = 50 cycles -> line AVF 0.5.
	got := lineAVF(t, 100, []struct {
		at    int64
		write bool
	}{{0, true}, {30, false}, {50, false}, {80, true}})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Figure 3a AVF = %v, want 0.5", got)
	}
}

func TestFigure3bMaskedByWrite(t *testing.T) {
	// WR1@0, WR2@60, RD@70: the strike between the writes is masked.
	// ACE: only [60,70] -> 0.1.
	got := lineAVF(t, 100, []struct {
		at    int64
		write bool
	}{{0, true}, {60, true}, {70, false}})
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Figure 3b AVF = %v, want 0.1", got)
	}
}

func TestFigure3cdSameHotnessDifferentAVF(t *testing.T) {
	// Both lines have 2 writes + 2 reads (same hotness), but different
	// orderings give different AVFs — the paper's core observation.
	c := lineAVF(t, 100, []struct {
		at    int64
		write bool
	}{{0, true}, {10, true}, {20, false}, {90, false}}) // W W R...R: ACE [10,20]+[20,90]=80
	d := lineAVF(t, 100, []struct {
		at    int64
		write bool
	}{{0, true}, {10, false}, {80, true}, {90, false}}) // W R W R: ACE [0,10]+[80,90]=20
	if !(c > d) {
		t.Fatalf("expected pattern (c) %v > pattern (d) %v", c, d)
	}
	if math.Abs(c-0.8) > 1e-12 || math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("c = %v (want 0.8), d = %v (want 0.2)", c, d)
	}
}

func TestTailAfterLastAccessIsDead(t *testing.T) {
	got := lineAVF(t, 1000, []struct {
		at    int64
		write bool
	}{{0, true}, {10, false}})
	if math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("AVF = %v, want 0.01 (tail must not count)", got)
	}
}

func TestPrefixBeforeFirstAccessIsDead(t *testing.T) {
	got := lineAVF(t, 100, []struct {
		at    int64
		write bool
	}{{90, false}})
	if got != 0 {
		t.Fatalf("AVF = %v, want 0 (read with no prior access opens no interval)", got)
	}
}

func TestWriteOnlyLineHasZeroAVF(t *testing.T) {
	got := lineAVF(t, 100, []struct {
		at    int64
		write bool
	}{{0, true}, {50, true}, {99, true}})
	if got != 0 {
		t.Fatalf("write-only AVF = %v, want 0", got)
	}
}

func TestPageAveragesLines(t *testing.T) {
	tr := NewTracker(2)
	// Line 0: fully ACE over [0,100]; other 63 lines untouched.
	tr.Access(7, 0, 0, true, tierDDR)
	tr.Access(7, 0, 100, false, tierDDR)
	snap := tr.Snapshot(100, identityIDs(8))
	want := 1.0 / 64
	if math.Abs(snap[0].AVF-want) > 1e-12 {
		t.Fatalf("page AVF = %v, want %v", snap[0].AVF, want)
	}
}

func TestTierAttribution(t *testing.T) {
	tr := NewTracker(2)
	tr.Access(1, 0, 0, true, tierHBM)    // interval starts in HBM
	tr.Access(1, 0, 40, false, tierHBM)  // [0,40] ACE -> HBM
	tr.MigratePage(1, tierDDR)           // move page to DDR
	tr.Access(1, 0, 100, false, tierDDR) // [40,100] ACE -> DDR (start re-tagged)
	snap := tr.Snapshot(160, identityIDs(2))
	p := snap[0]
	denominator := 64.0 * 160
	if math.Abs(p.ByTier[tierHBM]-40/denominator) > 1e-12 {
		t.Fatalf("HBM share = %v, want %v", p.ByTier[tierHBM], 40/denominator)
	}
	if math.Abs(p.ByTier[tierDDR]-60/denominator) > 1e-12 {
		t.Fatalf("DDR share = %v, want %v", p.ByTier[tierDDR], 60/denominator)
	}
	if math.Abs(p.AVF-(p.ByTier[0]+p.ByTier[1])) > 1e-15 {
		t.Fatal("tier shares must sum to page AVF")
	}
}

func TestMigrateUnknownPageIsNoop(t *testing.T) {
	tr := NewTracker(2)
	tr.MigratePage(99, tierHBM) // must not panic or create state
	if tr.PageCount() != 0 {
		t.Fatal("MigratePage created a page")
	}
}

func TestAccessCountsTracked(t *testing.T) {
	tr := NewTracker(2)
	tr.Access(3, 1, 0, true, tierDDR)
	tr.Access(3, 1, 5, false, tierDDR)
	tr.Access(3, 2, 9, false, tierDDR)
	p := tr.Snapshot(10, identityIDs(4))[0]
	if p.Reads != 2 || p.Writes != 1 {
		t.Fatalf("counts = R%d/W%d, want R2/W1", p.Reads, p.Writes)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	t.Run("line out of range", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewTracker(2).Access(0, 64, 0, false, tierDDR)
	})
	t.Run("bad tier", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewTracker(2).Access(0, 0, 0, false, Tier(7))
	})
	t.Run("bad snapshot duration", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewTracker(2).Snapshot(0, nil)
	})
}

func TestAVFBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		tr := NewTracker(2)
		const total = 10000
		n := 50 + rng.Intn(500)
		// Per (page,line) we must feed non-decreasing times; use a global
		// non-decreasing clock which trivially satisfies that.
		at := int64(0)
		for i := 0; i < n; i++ {
			at += int64(rng.Intn(20))
			if at >= total {
				break
			}
			tr.Access(uint32(rng.Uint64n(4)), rng.Intn(64), at, rng.Bool(0.4), Tier(rng.Intn(2)))
		}
		for _, p := range tr.Snapshot(total, identityIDs(4)) {
			if p.AVF < 0 || p.AVF > 1 {
				return false
			}
			if p.ByTier[0] < 0 || p.ByTier[1] < 0 {
				return false
			}
			if math.Abs(p.AVF-(p.ByTier[0]+p.ByTier[1])) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreWritesLowerAVFProperty(t *testing.T) {
	// The paper's §5.3 heuristic rationale: with accesses at a fixed rate,
	// raising the write fraction lowers AVF.
	avfFor := func(writeP float64) float64 {
		rng := xrand.New(7)
		tr := NewTracker(2)
		const total = 100000
		for at := int64(0); at < total; at += 50 {
			tr.Access(0, int(rng.Uint64n(64)), at, rng.Bool(writeP), tierDDR)
		}
		return tr.Snapshot(total, identityIDs(1))[0].AVF
	}
	low, high := avfFor(0.1), avfFor(0.9)
	if low <= high {
		t.Fatalf("AVF(writeP=0.1)=%v should exceed AVF(writeP=0.9)=%v", low, high)
	}
}

func TestMeanAVF(t *testing.T) {
	tr := NewTracker(2)
	if tr.MeanAVF(100, nil) != 0 {
		t.Fatal("empty tracker mean must be 0")
	}
	// Page 0: line fully ACE; page 1: untouched except one dead write.
	tr.Access(0, 0, 0, true, tierDDR)
	tr.Access(0, 0, 100, false, tierDDR)
	tr.Access(1, 0, 0, true, tierDDR)
	want := (1.0/64 + 0) / 2
	if got := tr.MeanAVF(100, identityIDs(2)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanAVF = %v, want %v", got, want)
	}
	if tr.PageCount() != 2 {
		t.Fatalf("PageCount = %d", tr.PageCount())
	}
}

func TestTierString(t *testing.T) {
	if tierDDR.String() != "tier0" || tierHBM.String() != "tier1" {
		t.Fatal("tier names wrong")
	}
	if Tier(9).String() != "tier9" {
		t.Fatal("unknown tier name wrong")
	}
}

func BenchmarkAccess(b *testing.B) {
	tr := NewTracker(2)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Access(uint32(rng.Uint64n(1024)), int(rng.Uint64n(64)), int64(i), i&3 == 0, tierDDR)
	}
}

// TestAccessZeroAllocsWhenWarm checks the AVF unit's hot path: once a page
// index is covered by the flat state array, Access never allocates.
func TestAccessZeroAllocsWhenWarm(t *testing.T) {
	tr := NewTracker(2)
	for pi := uint32(0); pi < 64; pi++ {
		tr.Access(pi, 0, int64(pi)+1, false, tierDDR)
	}
	now := int64(100)
	pi := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		tr.Access(pi, int(now)%64, now, now%3 == 0, tierDDR)
		pi = (pi + 1) % 64
	})
	if allocs != 0 {
		t.Fatalf("Access allocated %.1f times per access; want 0", allocs)
	}
}

// TestSkewedAccessClamps pins the multi-core clock-skew contract: an access
// reported earlier than the line's last access is treated as concurrent with
// it — no panic, zero ACE charged for the inverted interval, and the line's
// clock does not move backwards.
func TestSkewedAccessClamps(t *testing.T) {
	tr := NewTracker(2)
	tr.Access(0, 0, 100, true, tierDDR)
	tr.Access(0, 0, 90, false, tierDDR) // skewed read: clamped to cycle 100
	tr.Access(0, 0, 160, false, tierDDR)
	p := tr.Snapshot(160, identityIDs(1))[0]
	want := 60.0 / (64.0 * 160) // only [100,160] is ACE
	if math.Abs(p.AVF-want) > 1e-12 {
		t.Fatalf("AVF = %v, want %v (skewed access must charge nothing)", p.AVF, want)
	}
}
