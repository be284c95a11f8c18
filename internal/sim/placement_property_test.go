package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hmem/internal/avf"
	"hmem/internal/core"
	"hmem/internal/xrand"
)

// placed reports whether the placement has assigned a frame to page.
func placed(p *Placement, page uint64) bool {
	pi, ok := p.pt.Find(page)
	return ok && int(pi) < len(p.flags) && p.flags[pi]&pagePlaced != 0
}

// churnProperty drives the page table through random lookup/migrate
// sequences and checks the structural invariants that every policy and
// mechanism relies on:
//
//   - a frame is never assigned to two pages in the same tier;
//   - HBM occupancy never exceeds capacity;
//   - pinned pages never leave HBM;
//   - every page's location stays consistent with InHBM/HBMPages;
//   - frame accounting conserves capacity (free + resident == capacity).
func churnProperty(seed uint64) error {
	rng := xrand.New(seed)
	const hbmCap = 8
	const ddrCap = 64
	const pages = 48
	p := NewPlacement(core.HBMDDRTopology(hbmCap<<12, ddrCap<<12))

	// Preplace a few pages, pin half of them.
	var pinned []uint64
	for i := uint64(0); i < 4; i++ {
		pin := i%2 == 0
		if err := p.Preplace([]uint64{i}, pin); err != nil {
			return err
		}
		if pin {
			pinned = append(pinned, i)
		}
	}

	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0:
			p.Lookup(rng.Uint64n(pages))
		case 1:
			in := []uint64{rng.Uint64n(pages)}
			out := []uint64{rng.Uint64n(pages)}
			p.Migrate(in, out)
		default:
			p.Migrate(nil, p.HBMPages())
		}

		// Invariants.
		hbm := p.HBMPages()
		if uint64(len(hbm)) > hbmCap {
			return fmt.Errorf("step %d: HBM residency %d exceeds capacity %d", step, len(hbm), hbmCap)
		}
		if got := len(hbm) + p.HBMFreePages(); got != hbmCap {
			return fmt.Errorf("step %d: HBM frames leaked: %d resident + free", step, got)
		}
		seenFrames := map[[2]uint64]bool{}
		for pg := uint64(0); pg < pages; pg++ {
			if !placed(p, pg) {
				continue
			}
			tier, frame, err := p.Lookup(pg)
			if err != nil {
				return fmt.Errorf("step %d: lookup page %d: %w", step, pg, err)
			}
			key := [2]uint64{uint64(tier), frame}
			if seenFrames[key] {
				return fmt.Errorf("step %d: frame %d aliased in tier %v", step, frame, tier)
			}
			seenFrames[key] = true
			if (tier == tierHBM) != p.InHBM(pg) {
				return fmt.Errorf("step %d: page %d tier disagrees with InHBM", step, pg)
			}
		}
		for _, pg := range pinned {
			if !p.InHBM(pg) {
				return fmt.Errorf("step %d: pinned page %d left HBM", step, pg)
			}
		}
	}
	return nil
}

// TestPlacementInvariantsUnderRandomChurn checks churnProperty serially via
// testing/quick, then re-runs it from NumCPU goroutines concurrently (each
// on an independent Placement) so `go test -race` catches any accidental
// shared state between instances of the flat structures.
func TestPlacementInvariantsUnderRandomChurn(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		f := func(seed uint64) bool {
			if err := churnProperty(seed); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		workers := runtime.NumCPU()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seed := uint64(w * 100); seed < uint64(w*100+10); seed++ {
					if err := churnProperty(seed); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestPlacementConservation checks frame accounting: free + resident counts
// always sum to capacity.
func TestPlacementConservation(t *testing.T) {
	rng := xrand.New(5)
	p := NewPlacement(core.HBMDDRTopology(16<<12, 128<<12))
	for i := uint64(0); i < 100; i++ {
		p.Lookup(i)
	}
	for step := 0; step < 300; step++ {
		in := []uint64{rng.Uint64n(100)}
		out := []uint64{rng.Uint64n(100)}
		p.Migrate(in, out)
		if got := len(p.HBMPages()) + p.HBMFreePages(); got != 16 {
			t.Fatalf("step %d: HBM frames leaked: %d", step, got)
		}
	}
}

// refFrames is the reference frame allocator: every tier's free list built
// in full at construction, descending so frame 0 is handed out first, with
// frames given back pushed on top. Placement must hand out frames in
// exactly its order without building the lists.
type refFrames struct {
	free  [][]uint64
	where map[uint64][2]uint64 // page -> (tier, frame)
}

func newRefFrames(topo *core.Topology) *refFrames {
	r := &refFrames{where: map[uint64][2]uint64{}}
	for _, td := range topo.Tiers {
		n := td.Mem.Pages()
		fl := make([]uint64, n)
		for i := range fl {
			fl[i] = n - 1 - uint64(i)
		}
		r.free = append(r.free, fl)
	}
	return r
}

func (r *refFrames) take(t int) uint64 {
	fl := r.free[t]
	frame := fl[len(fl)-1]
	r.free[t] = fl[:len(fl)-1]
	return frame
}

// follow replays a move Placement made: page's old frame goes back to its
// tier's list, and the reference takes the destination tier's next frame.
func (r *refFrames) follow(page uint64, tier int) {
	if old, ok := r.where[page]; ok {
		r.free[old[0]] = append(r.free[old[0]], old[1])
	}
	r.where[page] = [2]uint64{uint64(tier), r.take(tier)}
}

// TestPlacementFrameOrderMatchesFreeList drives Placement through random
// preplacement, first-touch and migration sequences, spilling across tiers,
// and checks after every step that each page holds the frame the reference
// free lists would have given it and that free counts agree.
func TestPlacementFrameOrderMatchesFreeList(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		topo := threeTierTopo(24, 12, 6)
		if seed%2 == 0 {
			topo = core.HBMDDRTopology(8<<12, 40<<12)
		}
		p, ref := NewPlacement(topo), newRefFrames(topo)
		rng := xrand.New(seed)
		const pages = 40
		check := func(step int) {
			t.Helper()
			for pg := uint64(0); pg < pages; pg++ {
				pi, ok := p.pt.Find(pg)
				if !ok || !placed(p, pg) {
					if _, had := ref.where[pg]; had {
						t.Fatalf("seed %d step %d: page %d unplaced, reference placed it", seed, step, pg)
					}
					continue
				}
				tier, frame := uint64(p.tier[pi]), p.frame[pi]
				if want := ref.where[pg]; want != [2]uint64{tier, frame} {
					t.Fatalf("seed %d step %d: page %d at tier %d frame %d, reference %v", seed, step, pg, tier, frame, want)
				}
			}
			for tier := range ref.free {
				if p.FreeOf(tier) != len(ref.free[tier]) {
					t.Fatalf("seed %d step %d: tier %d has %d free, reference %d", seed, step, tier, p.FreeOf(tier), len(ref.free[tier]))
				}
			}
		}
		pre := []uint64{100, 101, 102}
		if err := p.Preplace(pre, seed%3 == 0); err != nil {
			t.Fatal(err)
		}
		for _, pg := range pre {
			ref.follow(pg, topo.FastTier)
		}
		for step := 0; step < 300; step++ {
			before := map[uint64]avf.Tier{}
			for pg := uint64(0); pg < pages; pg++ {
				if pi, ok := p.pt.Find(pg); ok && placed(p, pg) {
					before[pg] = avf.Tier(p.tier[pi])
				}
			}
			var in, out []uint64
			if rng.Bool(0.6) {
				pg := rng.Uint64n(pages)
				if _, _, err := p.Lookup(pg); err == nil {
					if _, had := before[pg]; !had {
						tier, _ := p.TierOfIndex(p.Intern(pg))
						ref.follow(pg, int(tier))
					}
				}
			} else {
				// In-pages and out-pages are disjoint, so each page moves at
				// most once and its move shows in its final tier.
				for n := rng.Intn(4); n > 0; n-- {
					out = append(out, rng.Uint64n(pages))
				}
				for n := rng.Intn(4); n > 0; n-- {
					if pg := rng.Uint64n(pages); !slices.Contains(out, pg) {
						in = append(in, pg)
					}
				}
				p.Migrate(in, out)
				// Placement moves out-pages first, then in-pages, each in
				// list order; replay the moves it made in that order.
				for _, group := range [][]uint64{out, in} {
					for _, pg := range group {
						tier, ok := p.TierOfIndex(p.Intern(pg))
						if was, had := before[pg]; ok && had && was != tier {
							ref.follow(pg, int(tier))
							before[pg] = tier
						}
					}
				}
			}
			check(step)
		}
	}
}

// TestNewPlacementAllocationIndependentOfCapacity checks that building a
// placement over the paper's full-size machine (16 GiB of DDR, four million
// frames) costs a few kilobytes, not a free list of every frame.
func TestNewPlacementAllocationIndependentOfCapacity(t *testing.T) {
	topo := core.DefaultTopology(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewPlacement(topo)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewPlacement over %d frames allocated %d bytes; want under 64 KiB", topo.TotalPages(), got)
	}
}
