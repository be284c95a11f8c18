package migration

import (
	"testing"

	"hmem/internal/core"
	"hmem/internal/sim"
)

func TestCCBlacklistBlocksReadmission(t *testing.T) {
	cc := NewCrossCounter(1000, 1, 8) // every tick is an epoch
	placement := sim.NewPlacement(core.HBMDDRTopology(4<<12, 64<<12))
	if err := placement.Preplace([]uint64{100, 101}, false); err != nil {
		t.Fatal(err)
	}
	// Resident 100 is read-heavy (high risk); 101 is writey and anchors
	// the epoch's mean risk above zero.
	feed(cc, placement, 100, 50, 0, true)
	feed(cc, placement, 101, 5, 45, true)
	_, out := cc.Decide(1000, placement)
	if len(out) != 1 || out[0] != 100 {
		t.Fatalf("out = %v, want [100]", out)
	}
	if moved := placement.Migrate(nil, out); moved != 1 {
		t.Fatal("eviction failed")
	}
	// Page 100 is now DDR-resident and still hot: MEA wants it back, but
	// the blacklist must veto re-admission.
	for tick := 0; tick < 3; tick++ {
		feed(cc, placement, 100, 50, 0, false)
		feed(cc, placement, 101, 5, 45, true)
		in, _ := cc.Decide(int64(2000+tick*1000), placement)
		for _, pg := range in {
			if pg == 100 {
				t.Fatalf("tick %d: blacklisted page re-admitted", tick)
			}
		}
	}
	// After blockEpochs epochs the verdict expires and the page may return.
	for tick := 0; tick < 8; tick++ {
		feed(cc, placement, 100, 50, 0, false)
		feed(cc, placement, 101, 5, 45, true)
		in, _ := cc.Decide(int64(6000+tick*1000), placement)
		for _, pg := range in {
			if pg == 100 {
				return // re-admitted eventually: expiry works
			}
		}
	}
	t.Fatal("blacklist never expired")
}

func TestCCBlacklistDisabled(t *testing.T) {
	cc := NewCrossCounter(1000, 1, 8)
	cc.SetBlockEpochs(0)
	placement := sim.NewPlacement(core.HBMDDRTopology(4<<12, 64<<12))
	if err := placement.Preplace([]uint64{100, 101}, false); err != nil {
		t.Fatal(err)
	}
	feed(cc, placement, 100, 50, 0, true)
	feed(cc, placement, 101, 5, 45, true)
	_, out := cc.Decide(1000, placement)
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	placement.Migrate(nil, out)
	// Without the blacklist the hot high-risk page bounces right back.
	feed(cc, placement, 100, 50, 0, false)
	in, _ := cc.Decide(2000, placement)
	found := false
	for _, pg := range in {
		if pg == 100 {
			found = true
		}
	}
	if !found {
		t.Fatal("without blacklist the page should be re-admitted immediately")
	}
	// Negative values clamp to 0 (disabled) rather than panicking.
	cc.SetBlockEpochs(-5)
}

func TestCCEvictHysteresis(t *testing.T) {
	// With strict mean eviction (factor 1.0), a uniform low-risk resident
	// population churns against its own mean; with the default 0.5 factor
	// it stays put.
	build := func(factor float64) []uint64 {
		cc := NewCrossCounter(1000, 1, 8)
		cc.SetEvictHysteresis(factor)
		placement := sim.NewPlacement(core.HBMDDRTopology(8<<12, 64<<12))
		// Four residents with slightly different but uniformly writey mixes.
		for i, w := range []int{40, 42, 44, 46} {
			page := uint64(100 + i)
			if err := placement.Preplace([]uint64{page}, false); err != nil {
				t.Fatal(err)
			}
			feed(cc, placement, page, 10, w, true)
		}
		_, out := cc.Decide(1000, placement)
		return out
	}
	strict := build(1.0)
	hysteresis := build(0.5)
	if len(strict) == 0 {
		t.Fatal("strict mean split should evict the below-mean half")
	}
	if len(hysteresis) != 0 {
		t.Fatalf("hysteresis should keep a uniformly low-risk set: evicted %v", hysteresis)
	}
	// Non-positive factor falls back to strict behavior, not a panic.
	cc := NewCrossCounter(1000, 1, 8)
	cc.SetEvictHysteresis(0)
}

func TestPagesByHotnessAscOrdering(t *testing.T) {
	stats := []core.PageStats{
		{Page: 3, Reads: 50},
		{Page: 1, Reads: 5},
		{Page: 2, Reads: 5},
		{Page: 4},
	}
	got := pagesByHotnessAsc(stats)
	want := []uint64{4, 1, 2, 3} // coldest first, ties by page id
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestMeanWrRatio(t *testing.T) {
	if got := meanWrRatio(nil); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
	snap := []core.PageStats{
		{Reads: 10, Writes: 20}, // 2.0
		{Reads: 10, Writes: 0},  // 0.0
	}
	if got := meanWrRatio(snap); got != 1 {
		t.Fatalf("mean = %v, want 1", got)
	}
}
