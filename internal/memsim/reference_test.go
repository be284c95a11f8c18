package memsim

import (
	"fmt"
	"reflect"
	"testing"

	"hmem/internal/xrand"
)

// refMemory is the reference FR-FCFS scheduler the single-pass window is
// checked against: each channel's pending requests held unordered (serving
// one moves the last into its slot), every request stamped with a global
// sequence number, and two scans per request served — one for the earliest
// arrival, one for the winner, ties broken by sequence number. It drives a
// Memory's channels and command sequencer but keeps its own windows, so a
// differential test isolates the choice of which request to serve.
type refMemory struct {
	m       *Memory
	seq     uint64
	pending [][]*refReq
}

type refReq struct {
	r   *Request
	seq uint64
	bk  int32
	row int64
}

func newRefMemory(cfg Config) *refMemory {
	m := New(cfg)
	return &refMemory{m: m, pending: make([][]*refReq, len(m.channels))}
}

func (x *refMemory) Enqueue(r *Request) {
	x.seq++
	chIdx, bk, row, _ := x.m.geometry(r.Line)
	r.ch = int32(chIdx)
	for len(x.pending[chIdx]) >= x.m.cfg.QueueDepth {
		x.serveOne(chIdx)
	}
	x.pending[chIdx] = append(x.pending[chIdx], &refReq{r: r, seq: x.seq, bk: int32(bk), row: row})
}

func (x *refMemory) Complete(r *Request) int64 {
	for !r.served {
		if !x.serveOne(int(r.ch)) {
			panic("reference: Complete on request not enqueued")
		}
	}
	return r.finish
}

func (x *refMemory) Drain() int64 {
	var last int64
	for chIdx, ch := range x.m.channels {
		for x.serveOne(chIdx) {
		}
		if ch.dataFre > last {
			last = ch.dataFre
		}
	}
	return last
}

func (x *refMemory) serveOne(chIdx int) bool {
	ch, pending := x.m.channels[chIdx], x.pending[chIdx]
	if len(pending) == 0 {
		return false
	}
	earliest := pending[0].r.Arrival
	for _, p := range pending[1:] {
		if p.r.Arrival < earliest {
			earliest = p.r.Arrival
		}
	}
	if ch.now < earliest {
		ch.now = earliest
	}
	best, bestPrio := -1, -1
	var bestSeq uint64
	for i, p := range pending {
		if p.r.Arrival > ch.now {
			continue
		}
		prio := 0
		if ch.banks[p.bk].openRow == p.row {
			prio++
		}
		if !p.r.Write {
			prio += 2
		}
		if prio > bestPrio || (prio == bestPrio && p.seq < bestSeq) {
			best, bestPrio, bestSeq = i, prio, p.seq
		}
	}
	p := pending[best]
	pending[best] = pending[len(pending)-1]
	x.pending[chIdx] = pending[:len(pending)-1]
	x.m.service(ch, pendingReq{arrival: p.r.Arrival, row: p.row, bank: p.bk, write: p.r.Write, req: p.r})
	return true
}

// TestSchedulerMatchesReference drives Memory and the reference scheduler
// through identical seeded sequences of Enqueue, Complete, Drain, AdvanceTo
// and RecordBulkTransfer — arrivals landing both behind and ahead of the
// channels' horizons, traffic both row-local and scattered across channels
// and banks — and requires the same served-request sequence, finish times
// and counters.
func TestSchedulerMatchesReference(t *testing.T) {
	configs := []Config{DDR3(1 << 20), HBM(1 << 20), NVM(1 << 20)}
	shallow := DDR3(1 << 20)
	shallow.QueueDepth = 4
	configs = append(configs, shallow)
	for ci, cfg := range configs {
		for seed := uint64(1); seed <= 12; seed++ {
			if err := differential(cfg, xrand.Derive(seed, uint64(ci)), 4000); err != nil {
				t.Fatalf("%s (queue depth %d) seed %d: %v", cfg.Name, cfg.QueueDepth, seed, err)
			}
		}
	}
}

func differential(cfg Config, seed uint64, ops int) error {
	got, want := New(cfg), newRefMemory(cfg)
	var gotEv, wantEv []ServiceEvent
	got.SetAudit(func(ev ServiceEvent) { gotEv = append(gotEv, ev) })
	want.m.SetAudit(func(ev ServiceEvent) { wantEv = append(wantEv, ev) })

	rng := xrand.New(seed)
	type pair struct{ got, want *Request }
	var inFlight []pair
	var clock int64
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 70:
			clock += int64(rng.Intn(16))
			if rng.Bool(0.02) {
				clock += int64(rng.Intn(20000)) // an idle spell: arrivals jump past the horizons
			}
			// Arrivals up to 400 cycles behind or ahead of the clock, half
			// of them on a coarse grid so that several share one.
			at := clock + int64(rng.Intn(801)) - 400
			if rng.Bool(0.5) {
				at -= at % 64
			}
			line := rng.Uint64n(cfg.Lines())
			if rng.Bool(0.5) {
				line = rng.Uint64n(cfg.Lines() / 128) // row-local
			}
			write := rng.Bool(0.4)
			p := pair{&Request{Line: line, Write: write, Arrival: at}, &Request{Line: line, Write: write, Arrival: at}}
			got.Enqueue(p.got)
			want.Enqueue(p.want)
			inFlight = append(inFlight, p)
		case k < 88 && len(inFlight) > 0:
			i := rng.Intn(len(inFlight))
			p := inFlight[i]
			inFlight[i] = inFlight[len(inFlight)-1]
			inFlight = inFlight[:len(inFlight)-1]
			if g, w := got.Complete(p.got), want.Complete(p.want); g != w {
				return fmt.Errorf("op %d: Complete finished at %d, reference %d", op, g, w)
			}
		case k < 90:
			if g, w := got.Drain(), want.Drain(); g != w {
				return fmt.Errorf("op %d: Drain returned %d, reference %d", op, g, w)
			}
		case k < 96:
			at := clock + int64(rng.Intn(600)) - 200
			got.AdvanceTo(at)
			want.m.AdvanceTo(at)
		default:
			pages := 1 + rng.Intn(8)
			cycles := got.BulkTransferCycles(pages)
			got.RecordBulkTransfer(pages, cycles)
			want.m.RecordBulkTransfer(pages, cycles)
		}
	}
	if g, w := got.Drain(), want.Drain(); g != w {
		return fmt.Errorf("final Drain returned %d, reference %d", g, w)
	}
	for _, p := range inFlight {
		if p.got.Finish() != p.want.Finish() {
			return fmt.Errorf("request %+v finished at %d, reference %d", *p.want, p.got.Finish(), p.want.Finish())
		}
	}
	if len(gotEv) != len(wantEv) {
		return fmt.Errorf("served %d requests, reference %d", len(gotEv), len(wantEv))
	}
	for i := range gotEv {
		if gotEv[i] != wantEv[i] {
			return fmt.Errorf("service %d: %+v, reference %+v", i, gotEv[i], wantEv[i])
		}
	}
	if g, w := got.Stats(), want.m.Stats(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("stats %+v, reference %+v", g, w)
	}
	return nil
}
