// Package sim is the full-system simulator: 16 trace-driven cores with an
// analytic out-of-order model, the tiered memory system from memsim, AVF
// tracking, activity counters, and interval-driven migration hooks. It is
// the stand-in for the paper's extended Ramulator (§3.1).
package sim

import (
	"fmt"
	"slices"

	"hmem/internal/avf"
	"hmem/internal/core"
)

// Per-page state flags in Placement.flags.
const (
	pagePlaced uint8 = 1 << iota // a frame has been assigned
	pagePinned                   // never migrates (annotation)
)

// Placement is the system page table over an N-tier topology: it maps global
// page ids to (tier, frame), allocates frames on first touch following the
// topology's allocation order (spilling to the next tier when one runs out
// of frames), and performs migrations into and out of the fast tier. Pinned
// pages (program annotations, §7) never migrate.
//
// Placement owns the run's core.PageTable: page ids are interned to dense
// indices on first sight and all per-page state (tier, frame, pin) lives in
// flat slices indexed by them, so the per-access LookupIndex path performs
// no map operations and no allocations in steady state. The id-keyed
// methods (Preplace, Migrate, InHBM, HBMPages, ...) remain the public
// interval/driver API; the HBM-named methods answer for the fast tier.
//
// Tiers with a write budget get per-frame wear counters (RecordWrite); the
// default topology has none, so the write path pays one boolean check.
type Placement struct {
	pt *core.PageTable

	// Static tier shape (from the topology).
	names      []string
	capacity   []uint64 // pages per tier
	allocOrder []int
	fast       int

	// Per-page state, indexed by PageIndex.
	flags []uint8
	tier  []uint8  // valid iff pagePlaced
	frame []uint64 // valid iff pagePlaced

	// Per-tier frame allocator: frames at or above next have never been
	// handed out, and freed is a stack of frames migrations gave back.
	// Taking from freed first, then bumping next, hands frames out in the
	// order of a free list of every frame that starts descending (frame 0
	// first) and has returned frames pushed on top, without building it.
	next     []uint64
	freed    [][]uint64
	resident []int

	// Endurance accounting: wear[t] is per-frame write counts, non-nil only
	// for tiers with a budget; hasWear gates the whole path off for
	// topologies without endurance-limited tiers.
	hasWear bool
	budget  []uint64
	wear    [][]uint32

	migrations uint64
}

// NewPlacement builds a page table over a validated topology.
func NewPlacement(topo *core.Topology) *Placement {
	n := len(topo.Tiers)
	p := &Placement{
		pt:         core.NewPageTable(),
		names:      make([]string, n),
		capacity:   make([]uint64, n),
		allocOrder: append([]int(nil), topo.AllocOrder...),
		fast:       topo.FastTier,
		next:       make([]uint64, n),
		freed:      make([][]uint64, n),
		resident:   make([]int, n),
		budget:     make([]uint64, n),
		wear:       make([][]uint32, n),
	}
	for t, td := range topo.Tiers {
		pages := td.Mem.Pages()
		p.names[t] = td.Name
		p.capacity[t] = pages
		p.budget[t] = td.WriteBudget
		if td.WriteBudget > 0 {
			p.wear[t] = make([]uint32, pages)
			p.hasWear = true
		}
	}
	return p
}

// PageTable returns the run's interning table. The simulator shares it with
// the AVF tracker, the interval tracker, and the migrator so every structure
// indexes the same dense space.
func (p *Placement) PageTable() *core.PageTable { return p.pt }

// NumTiers returns the topology's tier count.
func (p *Placement) NumTiers() int { return len(p.capacity) }

// FastTier returns the fast (migration-target) tier index.
func (p *Placement) FastTier() int { return p.fast }

// AllocTiers returns the first-touch allocation order.
func (p *Placement) AllocTiers() []int { return p.allocOrder }

// TierName returns tier t's display name, with a stable "tier<N>" fallback.
func (p *Placement) TierName(t int) string {
	if t >= 0 && t < len(p.names) {
		return p.names[t]
	}
	return fmt.Sprintf("tier%d", t)
}

// CapacityOf returns tier t's size in pages.
func (p *Placement) CapacityOf(t int) uint64 { return p.capacity[t] }

// FreeOf returns the number of unallocated frames in tier t.
func (p *Placement) FreeOf(t int) int {
	return int(p.capacity[t]-p.next[t]) + len(p.freed[t])
}

// take hands out tier t's next free frame; ok is false when it has none.
func (p *Placement) take(t int) (frame uint64, ok bool) {
	if fl := p.freed[t]; len(fl) > 0 {
		frame = fl[len(fl)-1]
		p.freed[t] = fl[:len(fl)-1]
		return frame, true
	}
	if p.next[t] < p.capacity[t] {
		frame = p.next[t]
		p.next[t]++
		return frame, true
	}
	return 0, false
}

// give returns frame to tier t; it is the next one take hands out.
func (p *Placement) give(t int, frame uint64) { p.freed[t] = append(p.freed[t], frame) }

// ResidentOf returns the number of pages resident in tier t.
func (p *Placement) ResidentOf(t int) int { return p.resident[t] }

// ensure grows the per-index state to cover index i.
func (p *Placement) ensure(i int) {
	if i < len(p.flags) {
		return
	}
	n := len(p.flags) * 2
	if n <= i {
		n = i + 1
	}
	if n < 64 {
		n = 64
	}
	flags := make([]uint8, n)
	tier := make([]uint8, n)
	frame := make([]uint64, n)
	copy(flags, p.flags)
	copy(tier, p.tier)
	copy(frame, p.frame)
	p.flags, p.tier, p.frame = flags, tier, frame
}

// Preplace installs pages in the fast tier before the measured region begins
// — the paper's warm-start ("we assume a good pre-measurement placement").
// Pages beyond capacity are rejected with an error. pin marks them immovable
// (annotation-based placement).
func (p *Placement) Preplace(pages []uint64, pin bool) error {
	fast := p.fast
	for _, page := range pages {
		pi := p.pt.Intern(page)
		i := int(pi)
		p.ensure(i)
		if p.flags[i]&pagePlaced != 0 {
			return fmt.Errorf("sim: page %d placed twice", page)
		}
		frame, ok := p.take(fast)
		if !ok {
			return fmt.Errorf("sim: %s capacity %d exceeded during preplacement", p.names[fast], p.capacity[fast])
		}
		p.flags[i] = pagePlaced
		if pin {
			p.flags[i] |= pagePinned
		}
		p.tier[i] = uint8(fast)
		p.frame[i] = frame
		p.resident[fast]++
	}
	return nil
}

// Intern returns the dense index for page, interning it on first sight.
// The per-access caller interns once and then uses index-keyed calls only.
func (p *Placement) Intern(page uint64) core.PageIndex {
	pi := p.pt.Intern(page)
	p.ensure(int(pi))
	return pi
}

// ErrTierExhausted reports that a run's footprint outgrew the allocation
// tiers — a workload/configuration mismatch — naming the last tier of the
// allocation order, which ran out of frames on a first-touch allocation. It
// is returned (not panicked) so a misconfigured request fails one
// evaluation, not the process hosting it.
type ErrTierExhausted struct {
	Tier     int    // tier index of the last allocation candidate
	Name     string // its display name
	Capacity uint64 // its size in pages
}

// Error renders "sim: <tier> capacity exhausted (N pages)".
func (e *ErrTierExhausted) Error() string {
	return fmt.Sprintf("sim: %s capacity exhausted (%d pages)", e.Name, e.Capacity)
}

// LookupIndex returns the tier and frame of the page interned at pi,
// allocating a frame on first touch following the topology's allocation
// order and spilling to the next tier when one is full. If every allocation
// tier is out of frames it returns *ErrTierExhausted — a configuration
// error, since experiments size the allocation tiers to hold every
// footprint. The error path is cold; the steady-state lookup stays
// allocation-free. The index must come from this placement's Intern (or
// PageTable).
func (p *Placement) LookupIndex(pi core.PageIndex) (avf.Tier, uint64, error) {
	i := int(pi)
	if i >= len(p.flags) {
		p.ensure(i)
	}
	f := p.flags[i]
	if f&pagePlaced != 0 {
		return avf.Tier(p.tier[i]), p.frame[i], nil
	}
	return p.allocate(i, f)
}

// allocate performs the first-touch allocation for LookupIndex. It is kept
// out of line so the warm lookup above stays small enough to inline.
func (p *Placement) allocate(i int, f uint8) (avf.Tier, uint64, error) {
	for _, t := range p.allocOrder {
		if frame, ok := p.take(t); ok {
			p.flags[i] = f | pagePlaced
			p.tier[i] = uint8(t)
			p.frame[i] = frame
			p.resident[t]++
			return avf.Tier(t), frame, nil
		}
	}
	last := p.allocOrder[len(p.allocOrder)-1]
	return avf.Tier(last), 0, &ErrTierExhausted{Tier: last, Name: p.names[last], Capacity: p.capacity[last]}
}

// Lookup returns a page's tier and frame by id, allocating a frame on first
// touch (see LookupIndex).
func (p *Placement) Lookup(page uint64) (avf.Tier, uint64, error) {
	return p.LookupIndex(p.Intern(page))
}

// TierOfIndex returns the tier of the page interned at pi, if placed.
func (p *Placement) TierOfIndex(pi core.PageIndex) (avf.Tier, bool) {
	i := int(pi)
	if i >= len(p.flags) || p.flags[i]&pagePlaced == 0 {
		return 0, false
	}
	return avf.Tier(p.tier[i]), true
}

// InHBMIndex reports whether the page interned at pi resides in the fast
// tier (HBM in the default topology).
func (p *Placement) InHBMIndex(pi core.PageIndex) bool {
	i := int(pi)
	return i < len(p.flags) && p.flags[i]&pagePlaced != 0 && int(p.tier[i]) == p.fast
}

// InHBM reports whether page currently resides in the fast tier.
func (p *Placement) InHBM(page uint64) bool {
	pi, ok := p.pt.Find(page)
	return ok && p.InHBMIndex(pi)
}

// Pinned reports whether page is pinned (annotation).
func (p *Placement) Pinned(page uint64) bool {
	pi, ok := p.pt.Find(page)
	if !ok {
		return false
	}
	i := int(pi)
	return i < len(p.flags) && p.flags[i]&pagePinned != 0
}

// TierPages returns tier t's resident pages in ascending page-id order.
func (p *Placement) TierPages(t int) []uint64 {
	out := make([]uint64, 0, p.resident[t])
	ids := p.pt.IDs()
	for i, f := range p.flags {
		if i >= len(ids) {
			break
		}
		if f&pagePlaced != 0 && int(p.tier[i]) == t {
			out = append(out, ids[i])
		}
	}
	slices.Sort(out)
	return out
}

// HBMPages returns the fast tier's resident pages in ascending order.
func (p *Placement) HBMPages() []uint64 { return p.TierPages(p.fast) }

// HBMFreePages returns the number of unallocated fast-tier frames.
func (p *Placement) HBMFreePages() int { return p.FreeOf(p.fast) }

// HBMCapacity returns the fast tier's size in pages.
func (p *Placement) HBMCapacity() uint64 { return p.capacity[p.fast] }

// Migrations returns the total pages moved so far.
func (p *Placement) Migrations() uint64 { return p.migrations }

// RecordWrite charges one demand write against tier t's frame for endurance
// accounting. It is a no-op (one boolean check) for topologies without a
// write budget anywhere, keeping the default hot path untouched.
func (p *Placement) RecordWrite(t avf.Tier, frame uint64) {
	if !p.hasWear {
		return
	}
	p.noteWear(int(t), frame)
}

func (p *Placement) noteWear(t int, frame uint64) {
	w := p.wear[t]
	if w == nil || frame >= uint64(len(w)) {
		return
	}
	w[frame]++
}

// TierEndurance summarizes one endurance-limited tier's wear at the end of
// a run. Only tiers with a write budget report.
type TierEndurance struct {
	Tier            int    `json:"tier"`
	Name            string `json:"name"`
	WriteBudget     uint64 `json:"write_budget"`
	TotalWrites     uint64 `json:"total_writes"`
	MaxFrameWrites  uint64 `json:"max_frame_writes"`
	ExhaustedFrames uint64 `json:"exhausted_frames"` // frames at or past the budget
}

// Endurance reports per-tier wear for every write-budgeted tier, in tier
// order. Nil when the topology has no endurance-limited tier.
func (p *Placement) Endurance() []TierEndurance {
	if !p.hasWear {
		return nil
	}
	var out []TierEndurance
	for t, w := range p.wear {
		if w == nil {
			continue
		}
		e := TierEndurance{Tier: t, Name: p.names[t], WriteBudget: p.budget[t]}
		for _, n := range w {
			e.TotalWrites += uint64(n)
			if uint64(n) > e.MaxFrameWrites {
				e.MaxFrameWrites = uint64(n)
			}
			if uint64(n) >= p.budget[t] {
				e.ExhaustedFrames++
			}
		}
		out = append(out, e)
	}
	return out
}

// Migrate applies a migration decision: out-pages leave the fast tier for
// the first allocation tier with room, in-pages enter the fast tier from
// wherever they reside. Pinned pages and requests that don't match the
// page's current tier are skipped. If the fast tier lacks room for every
// in-page after the out-pages leave, the surplus in-pages are dropped (the
// hardware would do the same: swaps are paired). It returns the number of
// pages actually moved.
func (p *Placement) Migrate(in, out []uint64) int {
	moved := 0
	fast := p.fast
	for _, page := range out {
		pi, ok := p.pt.Find(page)
		if !ok {
			continue
		}
		i := int(pi)
		if i >= len(p.flags) {
			continue
		}
		f := p.flags[i]
		if f&pagePlaced == 0 || int(p.tier[i]) != fast || f&pagePinned != 0 {
			continue
		}
		dst := -1
		for _, t := range p.allocOrder {
			if t != fast && p.FreeOf(t) > 0 {
				dst = t
				break
			}
		}
		if dst < 0 {
			break
		}
		p.give(fast, p.frame[i])
		frame, _ := p.take(dst) // dst was chosen for having a free frame
		p.tier[i] = uint8(dst)
		p.frame[i] = frame
		p.resident[fast]--
		p.resident[dst]++
		if p.hasWear {
			p.noteWear(dst, frame) // the transfer writes the destination frame
		}
		moved++
	}
	for _, page := range in {
		pi, ok := p.pt.Find(page)
		if !ok {
			continue
		}
		i := int(pi)
		if i >= len(p.flags) {
			continue
		}
		f := p.flags[i]
		if f&pagePlaced == 0 || int(p.tier[i]) == fast || f&pagePinned != 0 {
			continue
		}
		frame, ok := p.take(fast)
		if !ok {
			break
		}
		src := int(p.tier[i])
		p.give(src, p.frame[i])
		p.tier[i] = uint8(fast)
		p.frame[i] = frame
		p.resident[src]--
		p.resident[fast]++
		if p.hasWear {
			p.noteWear(fast, frame)
		}
		moved++
	}
	p.migrations += uint64(moved)
	return moved
}
