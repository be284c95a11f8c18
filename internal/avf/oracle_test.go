package avf

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hmem/internal/trace"
	"hmem/internal/xrand"
)

// oracleEvent is one tracker call, kept verbatim: an access to (page, line)
// at a time, read or write, from a tier; or, with line < 0, a migration of
// page to tier.
type oracleEvent struct {
	page  uint32
	line  int
	at    int64
	write bool
	tier  Tier
}

// oracle is a brute-force reference for Tracker. It keeps every event and
// derives each line's ACE time from that line's whole history only when
// asked, straight from the per-line definition of memory AVF: the time
// between two consecutive accesses to a line is ACE iff the later one is a
// read, charged to the tier the line's data sat in over that time. An
// access stamped earlier than the line's previous one happened concurrently
// with it (a zero-length interval); a migration moves the data of every
// line already holding some.
type oracle struct {
	tiers  int
	events []oracleEvent
}

func (o *oracle) Access(pi uint32, line int, at int64, write bool, tier Tier) {
	o.events = append(o.events, oracleEvent{page: pi, line: line, at: at, write: write, tier: tier})
}

func (o *oracle) MigratePage(pi uint32, to Tier) {
	o.events = append(o.events, oracleEvent{page: pi, line: -1, tier: to})
}

// Snapshot computes what Tracker.Snapshot must return for the same calls.
func (o *oracle) Snapshot(totalCycles int64, ids []uint64) []PageAVF {
	byPage := map[uint32][]oracleEvent{}
	var pages []uint32
	for _, e := range o.events {
		if e.line >= 0 && !slices.Contains(pages, e.page) {
			pages = append(pages, e.page)
		}
		byPage[e.page] = append(byPage[e.page], e)
	}
	slices.SortFunc(pages, func(a, b uint32) int { return cmp.Compare(ids[a], ids[b]) })
	denom := float64(trace.LinesPerPage) * float64(totalCycles)
	out := make([]PageAVF, 0, len(pages))
	for _, pg := range pages {
		ace := make([]int64, o.tiers)
		p := PageAVF{Page: ids[pg]}
		for line := 0; line < trace.LinesPerPage; line++ {
			held := false // the line has data, sitting in tier holder since time last
			var last int64
			var holder Tier
			for _, e := range byPage[pg] {
				switch {
				case e.line < 0:
					if held {
						holder = e.tier
					}
				case e.line == line:
					at := e.at
					if held && at < last {
						at = last
					}
					if held && !e.write {
						ace[holder] += at - last
					}
					held, last, holder = true, at, e.tier
					if e.write {
						p.Writes++
					} else {
						p.Reads++
					}
				}
			}
		}
		p.ByTier = make([]float64, o.tiers)
		for tier, cycles := range ace {
			p.ByTier[tier] = float64(cycles) / denom
			p.AVF += p.ByTier[tier]
		}
		out = append(out, p)
	}
	return out
}

// avfSink is what a random sequence drives: the tracker, the oracle, or
// both.
type avfSink interface {
	Access(pi uint32, line int, at int64, write bool, tier Tier)
	MigratePage(pi uint32, to Tier)
}

// randomRun drives sinks through one seeded sequence over pages dense
// indices and tiers tiers. Lines cluster on a few hot ones so most lines
// see many intervals; about one access in five is stamped up to 200 cycles
// behind the running clock (per-core clock skew), and about one call in
// twenty migrates a page, sometimes one never accessed or never interned.
// It returns the run's length and its dense index→page-id mapping, which is
// deliberately not in index order.
func randomRun(seed uint64, pages, tiers, calls int, sinks ...avfSink) (int64, []uint64) {
	rng := xrand.New(seed)
	clock := int64(1000)
	for n := 0; n < calls; n++ {
		if rng.Bool(0.05) {
			pi, to := uint32(rng.Intn(pages+8)), Tier(rng.Intn(tiers))
			for _, s := range sinks {
				s.MigratePage(pi, to)
			}
			continue
		}
		clock += int64(rng.Intn(40))
		at := clock
		if rng.Bool(0.2) {
			at -= int64(rng.Intn(200))
		}
		line := rng.Intn(trace.LinesPerPage)
		if rng.Bool(0.6) {
			line = rng.Intn(4)
		}
		pi, write, tier := uint32(rng.Intn(pages)), rng.Bool(0.4), Tier(rng.Intn(tiers))
		for _, s := range sinks {
			s.Access(pi, line, at, write, tier)
		}
	}
	ids := make([]uint64, pages)
	for i, v := range rng.Perm(pages) {
		ids[i] = uint64(v)*4099 + 7
	}
	return clock + 1, ids
}

// TestTrackerMatchesOracle checks the tracker's incremental bookkeeping
// against the brute-force per-line reference, bit for bit, over seeded
// random sequences with clock skew and migrations.
func TestTrackerMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		pages, tiers := 1+int(seed%37), 1+int(seed%4)
		tr, or := NewTracker(tiers), &oracle{tiers: tiers}
		total, ids := randomRun(seed, pages, tiers, 3000, tr, or)
		got, want := tr.Snapshot(total, ids), or.Snapshot(total, ids)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d pages, %d tiers): tracker and oracle differ\n%s", seed, pages, tiers, firstDiff(got, want))
		}
		if tr.PageCount() != len(want) {
			t.Fatalf("seed %d: PageCount %d, oracle saw %d pages", seed, tr.PageCount(), len(want))
		}
	}
}

// TestResetMatchesFresh checks that a tracker reused through Reset, over a
// different tier count and a smaller or larger footprint, snapshots exactly
// as a fresh tracker and the oracle do for the same calls.
func TestResetMatchesFresh(t *testing.T) {
	shapes := []struct{ pages, tiers int }{{300, 3}, {40, 2}, {500, 4}, {10, 1}, {200, 2}, {200, 3}}
	for seed := uint64(1); seed <= 10; seed++ {
		reused := NewTracker(shapes[0].tiers)
		for i, s := range shapes {
			if i > 0 {
				reused.Reset(s.tiers)
			}
			fresh, or := NewTracker(s.tiers), &oracle{tiers: s.tiers}
			runSeed := xrand.Derive(seed, uint64(i))
			total, ids := randomRun(runSeed, s.pages, s.tiers, 2000, reused, fresh, or)
			got, want := reused.Snapshot(total, ids), fresh.Snapshot(total, ids)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d shape %d %+v: reused tracker differs from fresh\n%s", seed, i, s, firstDiff(got, want))
			}
			if !reflect.DeepEqual(want, or.Snapshot(total, ids)) {
				t.Fatalf("seed %d shape %d %+v: fresh tracker differs from oracle", seed, i, s)
			}
			if reused.PageCount() != fresh.PageCount() || reused.NumTiers() != s.tiers {
				t.Fatalf("seed %d shape %d: reused PageCount %d/NumTiers %d, fresh %d/%d",
					seed, i, reused.PageCount(), reused.NumTiers(), fresh.PageCount(), s.tiers)
			}
		}
	}
}

// firstDiff describes the first record where two snapshots disagree.
func firstDiff(got, want []PageAVF) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("got %d records, want %d", len(got), len(want))
}
