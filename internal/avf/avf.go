// Package avf computes the Architectural Vulnerability Factor of memory at
// cache-line granularity and aggregates it per 4 KiB page, following §4.1 of
// the paper: "we perform AVF analysis on memory at a cache line granularity
// because memory reads and writes occur at cache line granularity. We sum the
// AVF of individual cache lines to compose the AVF of a page."
//
// The ACE-interval rules come from Figure 3: the interval between two
// consecutive accesses to a line is ACE (architecturally correct execution —
// a particle strike there becomes a program-visible error) iff the interval
// ends in a read. Write→read and read→read gaps are ACE; read→write and
// write→write gaps are dead (the strike is masked by the overwrite). The
// tail after a line's final access is dead, as is any prefix before its first
// observed access.
//
// Because dynamic schemes move pages between tiers mid-run, every ACE
// interval is attributed to the tier the page occupied when the interval
// started, splitting a page's soft-error exposure across tiers.
//
// The tracker is keyed by dense page indices (core.PageTable interning —
// passed here as raw uint32 to keep this package import-free) and stores
// per-page state in flat slices: the per-access path is array indexing, no
// map operations, and no allocations once the footprint has been seen. A
// tracker can be Reset and reused for another run, keeping that storage. Tiers
// are dense small integers too — the tracker supports any tier count with
// per-tier ACE totals in flat [tier][pageIndex] slices, so the N-tier
// generalization costs the hot path nothing. Page ids reappear only at
// Snapshot time, when the caller provides the dense index→id mapping.
package avf

import (
	"cmp"
	"slices"
	"strconv"

	"hmem/internal/trace"
)

// Tier identifies one memory tier of the HMA by dense index: the position in
// the run's topology (core.Topology.Tiers), which also owns the tier names.
type Tier uint8

// String returns a stable "tier<N>"; the topology supplies display names.
func (t Tier) String() string { return "tier" + strconv.Itoa(int(t)) }

type pageState struct {
	lastAccess [trace.LinesPerPage]int64
	// lineTier records, per line, the tier the page was in at the line's
	// last access — the tier an interval ending at the next access to that
	// line is charged to.
	lineTier [trace.LinesPerPage]uint8
	// touched marks lines that have been accessed at least once.
	touched uint64
	// reads/writes give per-page access counts for cross-checks.
	reads, writes uint64
}

// Tracker accumulates ACE time for every page index it observes. The zero
// value is not usable; construct with NewTracker. Not safe for concurrent
// use.
type Tracker struct {
	pages []pageState // indexed by dense page index
	// ace accumulates ACE cycles as flat [tier][pageIndex] slices — dense in
	// the same index space as pages, so charging an interval is two array
	// indexes regardless of tier count. Each has len(pages) entries.
	ace      [][]int64
	observed int // entries with at least one access
	// hi bounds the touched indices: every page header and ACE total at or
	// above it is zero, so Reset and Snapshot stop there.
	hi int
}

// NewTracker returns an empty tracker over tiers memory tiers.
func NewTracker(tiers int) *Tracker {
	checkTiers(tiers)
	return &Tracker{ace: make([][]int64, tiers)}
}

func checkTiers(tiers int) {
	if tiers < 1 || tiers > 256 {
		panic("avf: tier count out of range")
	}
}

// Reset empties the tracker for a new run over tiers memory tiers, keeping
// its storage. It clears only the page headers and ACE totals below the
// high-water mark: a line's lastAccess and lineTier are read only while its
// touched bit is set, so the stale values left there are unreachable.
func (t *Tracker) Reset(tiers int) {
	checkTiers(tiers)
	for i := range t.pages[:t.hi] {
		ps := &t.pages[i]
		ps.touched, ps.reads, ps.writes = 0, 0, 0
	}
	for _, ace := range t.ace {
		clear(ace[:t.hi])
	}
	for len(t.ace) < tiers {
		t.ace = append(t.ace, make([]int64, len(t.pages)))
	}
	t.ace = t.ace[:tiers]
	t.observed, t.hi = 0, 0
}

// NumTiers returns the tracker's tier count.
func (t *Tracker) NumTiers() int { return len(t.ace) }

// ensure grows the state slices to cover index i.
func (t *Tracker) ensure(i int) {
	if i < len(t.pages) {
		return
	}
	n := len(t.pages) * 2
	if n <= i {
		n = i + 1
	}
	if n < 64 {
		n = 64
	}
	pages := make([]pageState, n)
	copy(pages, t.pages)
	t.pages = pages
	for tier := range t.ace {
		ace := make([]int64, n)
		copy(ace, t.ace[tier])
		t.ace[tier] = ace
	}
}

// Access records an access to line lineInPage (0..63) of the page interned
// at dense index pi, at cycle `at`, residing in tier. Accesses to a line
// arrive in nearly non-decreasing time order; a timestamp earlier than the
// line's last access is treated as concurrent with it (clamped to a
// zero-length interval), because the simulator's per-core clocks can skew
// by one record's gap plus stalls between picking a core and recording its
// access, and the ordering of two cores' accesses within that skew is
// arbitrary.
func (t *Tracker) Access(pi uint32, lineInPage int, at int64, write bool, tier Tier) {
	if lineInPage < 0 || lineInPage >= trace.LinesPerPage {
		panic("avf: line index out of page")
	}
	if int(tier) >= len(t.ace) {
		panic("avf: tier out of range for tracker")
	}
	i := int(pi)
	if i >= len(t.pages) {
		t.ensure(i)
	}
	ps := &t.pages[i]
	if ps.touched == 0 {
		t.observed++
		if i >= t.hi {
			t.hi = i + 1
		}
	}
	bit := uint64(1) << uint(lineInPage)
	if ps.touched&bit != 0 {
		last := ps.lastAccess[lineInPage]
		if at < last {
			at = last
		}
		if !write {
			// Interval ends in a read: ACE, charged to the tier the page
			// occupied when the interval started.
			t.ace[ps.lineTier[lineInPage]][i] += at - last
		}
	}
	ps.lastAccess[lineInPage] = at
	ps.lineTier[lineInPage] = uint8(tier)
	ps.touched |= bit
	if write {
		ps.writes++
	} else {
		ps.reads++
	}
}

// MigratePage re-tags a page's open intervals to a new tier. An ACE interval
// that spans the migration is charged wholly to the destination tier: at
// migration time the interval's outcome (read or write) is still unknown, so
// a faithful split is impossible without lookahead. Migrations are rare per
// page relative to accesses, so the attribution error is small (documented
// in DESIGN.md).
func (t *Tracker) MigratePage(pi uint32, to Tier) {
	i := int(pi)
	if i >= len(t.pages) {
		return
	}
	ps := &t.pages[i]
	if ps.touched == 0 {
		return
	}
	for l := range ps.lineTier {
		ps.lineTier[l] = uint8(to)
	}
}

// PageAVF describes one page's vulnerability over a run of totalCycles.
type PageAVF struct {
	Page   uint64
	AVF    float64   // whole-page AVF in [0,1]
	ByTier []float64 // tier-attributed AVF shares (by tier index); sum == AVF
	Reads  uint64
	Writes uint64
}

// Snapshot returns the per-page AVF over a run that lasted totalCycles,
// ordered by page id (a deterministic order keeps downstream floating-point
// aggregation bit-reproducible: per-page tier shares accumulate in ascending
// tier index). ids is the dense index→page-id mapping (core.PageTable.IDs);
// indices the tracker never saw an access for are skipped. totalCycles must
// be positive.
func (t *Tracker) Snapshot(totalCycles int64, ids []uint64) []PageAVF {
	if totalCycles <= 0 {
		panic("avf: Snapshot with non-positive duration")
	}
	denom := float64(trace.LinesPerPage) * float64(totalCycles)
	tiers := len(t.ace)
	// Sort the observed dense indices by page id, then build each record in
	// place, rather than sorting the wider records themselves.
	order := make([]uint32, 0, t.observed)
	for i := range t.pages[:t.hi] {
		if t.pages[i].touched != 0 {
			order = append(order, uint32(i))
		}
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(ids[a], ids[b]) })
	out := make([]PageAVF, len(order))
	// One backing array for every page's ByTier keeps the snapshot to O(1)
	// allocations instead of one per page.
	shares := make([]float64, len(order)*tiers)
	for k, i := range order {
		ps := &t.pages[i]
		p := &out[k]
		*p = PageAVF{Page: ids[i], Reads: ps.reads, Writes: ps.writes}
		p.ByTier, shares = shares[:tiers:tiers], shares[tiers:]
		for tier := 0; tier < tiers; tier++ {
			p.ByTier[tier] = float64(t.ace[tier][i]) / denom
			p.AVF += p.ByTier[tier]
		}
	}
	return out
}

// PageCount returns the number of distinct pages observed.
func (t *Tracker) PageCount() int { return t.observed }

// MeanAVF returns the mean page AVF over totalCycles — the paper's Figure 2
// metric ("Average AVF of memory"). ids is as for Snapshot.
func (t *Tracker) MeanAVF(totalCycles int64, ids []uint64) float64 {
	if t.observed == 0 {
		return 0
	}
	sum := 0.0
	snap := t.Snapshot(totalCycles, ids)
	for _, p := range snap {
		sum += p.AVF
	}
	return sum / float64(len(snap))
}
