package memsim

import (
	"fmt"
	"math"
)

// Request is one cache-line access in flight in a memory tier. Callers
// allocate a Request, Enqueue it, and later obtain its finish time with
// Complete (lazy resolution lets the FR-FCFS scheduler see a window of
// requests before committing to an order).
type Request struct {
	// Line is the tier-local cache-line index (0 .. Config.Lines()-1).
	Line uint64
	// Write marks a write request.
	Write bool
	// Arrival is the CPU cycle the request reached the controller.
	Arrival int64

	finish int64
	served bool
	ch     int32 // channel index, resolved at Enqueue
}

// Reset prepares a served Request for reuse with new parameters, letting
// callers pool Requests instead of allocating one per access. It panics if
// the request is still in flight.
func (r *Request) Reset(line uint64, write bool, arrival int64) {
	if !r.served {
		panic("memsim: Reset of in-flight request")
	}
	*r = Request{Line: line, Write: write, Arrival: arrival}
}

// Finished reports whether the scheduler has served the request.
func (r *Request) Finished() bool { return r.served }

// Finish returns the completion cycle. It panics if the request has not yet
// been served; use Memory.Complete to force resolution.
func (r *Request) Finish() int64 {
	if !r.served {
		panic("memsim: Finish on unserved request")
	}
	return r.finish
}

// Stats aggregates controller activity for one tier.
type Stats struct {
	Reads, Writes          uint64
	RowHits, RowMisses     uint64 // misses include conflicts (row open to another row)
	RowConflicts           uint64
	TotalReadLatency       uint64 // sum over reads of finish-arrival, CPU cycles
	TotalWriteLatency      uint64
	DataBusBusy            int64 // CPU cycles of data-bus occupancy across channels
	BulkTransfers          uint64
	BulkTransferredPages   uint64
	BulkTransferCyclesPaid int64
	Refreshes              uint64
}

// AvgReadLatency returns the mean read latency in CPU cycles.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.Reads)
}

// RowHitRate returns the fraction of requests that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

type bank struct {
	openRow      int64 // -1 when precharged
	casReady     int64 // earliest CAS to the open row (ACT + tRCD)
	preReady     int64 // earliest PRE (tRAS / tRTP / tWR constraints)
	lastWriteEnd int64 // for tWTR write-to-read turnaround
}

// pendingReq is one request in a channel's scheduling window: what the
// FR-FCFS scan reads, held by value so the scan walks one contiguous array,
// and the request to stamp once served. Bank and row are resolved at
// Enqueue, so neither the scan nor the command sequencer re-divides the
// line address.
type pendingReq struct {
	arrival int64
	row     int64
	bank    int32
	write   bool
	req     *Request
}

type channel struct {
	cfg         *Config
	now         int64 // command scheduling horizon: the channel has made all decisions up to now
	cmdFree     int64
	dataFre     int64
	lastAct     int64 // for tRRD across banks
	nextRefresh int64 // next all-bank refresh deadline (0 = disabled)
	banks       []bank
	// pending is the scheduling window in age order (oldest first): Enqueue
	// appends and serveOne closes the gap it leaves, so position is age.
	pending []pendingReq
}

// ServiceEvent describes one serviced request for timing audits: the DRAM
// command times the scheduler committed to. Tests use it to verify timing
// legality (bus exclusivity, CAS spacing, bank cycle constraints).
type ServiceEvent struct {
	Channel, Bank int
	Row           int64
	Write         bool
	RowHit        bool
	CAS           int64 // CAS issue cycle
	DataStart     int64
	DataEnd       int64
}

// cycTiming is the tier's Timing pre-converted to CPU cycles, so the
// per-request command sequencer never multiplies by TCK.
type cycTiming struct {
	cl, cwl, rcd, rp, ras, wr, bl, ccd, rrd, wtr, rtp, refi, rfc int64
}

// Memory simulates one tier. It is not safe for concurrent use.
type Memory struct {
	cfg      Config
	channels []*channel
	stats    Stats
	audit    func(ServiceEvent)

	// Geometry constants hoisted out of Config so the per-access address
	// mapping is pure integer arithmetic on local fields.
	nch, lpr, nbk, lines uint64
	ct                   cycTiming
}

// SetAudit installs a hook receiving every serviced request's committed
// command times (nil disables). Intended for tests and debugging.
func (m *Memory) SetAudit(fn func(ServiceEvent)) { m.audit = fn }

// New builds a Memory from cfg. It panics on an invalid configuration, since
// configurations are build-time constants of an experiment.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg}
	m.nch = uint64(cfg.Channels)
	m.lpr = cfg.LinesPerRow()
	m.nbk = uint64(cfg.RanksPerChannel * cfg.BanksPerRank)
	m.lines = cfg.Lines()
	t := cfg.Timing
	m.ct = cycTiming{
		cl: t.cc(t.TCL), cwl: t.cc(t.TCWL),
		rcd: t.cc(t.TRCD), rp: t.cc(t.TRP), ras: t.cc(t.TRAS), wr: t.cc(t.TWR),
		bl: t.cc(t.TBL), ccd: t.cc(t.TCCD), rrd: t.cc(t.TRRD),
		wtr: t.cc(t.TWTR), rtp: t.cc(t.TRTP),
		refi: t.cc(t.TREFI), rfc: t.cc(t.TRFC),
	}
	m.channels = make([]*channel, cfg.Channels)
	for i := range m.channels {
		// lastAct starts far in the past so the first ACT is not delayed
		// by a phantom tRRD constraint.
		ch := &channel{cfg: &m.cfg, lastAct: -1 << 40}
		if cfg.Timing.TREFI > 0 {
			ch.nextRefresh = cfg.Timing.cc(cfg.Timing.TREFI)
		}
		ch.banks = make([]bank, cfg.RanksPerChannel*cfg.BanksPerRank)
		ch.pending = make([]pendingReq, 0, cfg.QueueDepth)
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		m.channels[i] = ch
	}
	return m
}

// Config returns the tier configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a snapshot of the tier's counters.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (used at measurement-interval boundaries).
func (m *Memory) ResetStats() { m.stats = Stats{} }

// geometry locates a line: channel by low-order interleave (maximizes
// channel-level parallelism for streaming), then column within row, then
// bank interleave on row index (consecutive rows in different banks).
func (m *Memory) geometry(line uint64) (ch, bk int, row int64, col uint64) {
	ch = int(line % m.nch)
	chLine := line / m.nch
	col = chLine % m.lpr
	rowIdx := chLine / m.lpr
	bk = int(rowIdx % m.nbk)
	row = int64(rowIdx / m.nbk)
	return ch, bk, row, col
}

// Enqueue admits a request to its channel's scheduling window. If the window
// is full the scheduler first retires the best candidate to make room. The
// request's Line must be inside the tier; callers map global pages to
// tier-local frames before enqueueing.
func (m *Memory) Enqueue(r *Request) {
	if r.Line >= m.lines {
		panic(fmt.Sprintf("memsim: %s: line %d beyond capacity (%d lines)", m.cfg.Name, r.Line, m.lines))
	}
	if r.served {
		panic("memsim: Enqueue of already-served request")
	}
	chIdx, bk, row, _ := m.geometry(r.Line)
	r.ch = int32(chIdx)
	ch := m.channels[chIdx]
	for len(ch.pending) >= m.cfg.QueueDepth {
		m.serveOne(ch)
	}
	ch.pending = append(ch.pending, pendingReq{arrival: r.Arrival, row: row, bank: int32(bk), write: r.Write, req: r})
}

// Complete forces resolution of r and returns its finish cycle. Requests on
// the same channel that the FR-FCFS scheduler prefers are served first.
func (m *Memory) Complete(r *Request) int64 {
	if r.served {
		return r.finish
	}
	ch := m.channels[r.ch]
	for !r.served {
		if !m.serveOne(ch) {
			panic("memsim: Complete on request not enqueued")
		}
	}
	return r.finish
}

// Drain serves every pending request on every channel and returns the
// largest finish time observed (0 if nothing was pending).
func (m *Memory) Drain() int64 {
	var last int64
	for _, ch := range m.channels {
		for m.serveOne(ch) {
		}
		if ch.dataFre > last {
			last = ch.dataFre
		}
	}
	return last
}

// FR-FCFS priority classes, best last. Reads sit on the core's critical
// path while writes are posted, so any read beats any write; within each,
// a hit on the bank's open row beats a miss.
const (
	prioWrite = iota
	prioRowHitWrite
	prioRead
	prioRowHitRead
)

// serveOne picks and retires one request from ch under FR-FCFS: the highest
// priority class among requests that have arrived by the horizon, oldest
// first within a class. If none has arrived, the channel is idle ahead of
// all pending work, so the horizon first jumps to the earliest arrival. It
// returns false if the channel has nothing pending.
//
// One pass over the age-ordered window finds both candidates: best, among
// the arrived, and first, the best of the earliest arrivals (needed only
// when nothing has arrived). The first arrived row-hit read cannot be
// beaten, so the pass stops there.
func (m *Memory) serveOne(ch *channel) bool {
	if len(ch.pending) == 0 {
		return false
	}
	best, bestPrio := -1, -1
	first, firstPrio := -1, -1
	earliest := int64(math.MaxInt64)
	for i := range ch.pending {
		p := &ch.pending[i]
		arrived := p.arrival <= ch.now
		if !arrived && (best >= 0 || p.arrival > earliest) {
			continue
		}
		prio := prioWrite
		if !p.write {
			prio = prioRead
		}
		if ch.banks[p.bank].openRow == p.row {
			prio++
		}
		if arrived {
			if prio > bestPrio {
				best, bestPrio = i, prio
				if prio == prioRowHitRead {
					break
				}
			}
		} else if p.arrival < earliest || prio > firstPrio {
			first, firstPrio, earliest = i, prio, p.arrival
		}
	}
	if best < 0 {
		best = first // service starts it at its arrival, the new horizon
	}
	p := ch.pending[best]
	ch.pending = append(ch.pending[:best], ch.pending[best+1:]...)
	m.service(ch, p)
	return true
}

// refreshUpTo runs any all-bank refreshes due by cycle `at`: every bank is
// precharged and the channel is blocked for tRFC per refresh.
func (m *Memory) refreshUpTo(ch *channel, at int64) {
	if ch.nextRefresh == 0 {
		return
	}
	for ch.nextRefresh <= at {
		end := max64(ch.nextRefresh, ch.cmdFree) + m.ct.rfc
		for i := range ch.banks {
			ch.banks[i].openRow = -1
			if ch.banks[i].preReady < end {
				ch.banks[i].preReady = end
			}
			if ch.banks[i].casReady < end {
				ch.banks[i].casReady = end
			}
		}
		if ch.cmdFree < end {
			ch.cmdFree = end
		}
		m.stats.Refreshes++
		ch.nextRefresh += m.ct.refi
	}
}

// service runs the DRAM command sequence for p and stamps its request's
// finish time.
func (m *Memory) service(ch *channel, p pendingReq) {
	t := &m.ct
	r := p.req
	row := p.row
	b := &ch.banks[p.bank]

	start := max64(ch.now, p.arrival)
	m.refreshUpTo(ch, start)

	rowHit := false
	switch {
	case b.openRow == row:
		rowHit = true
		m.stats.RowHits++
	case b.openRow == -1:
		m.stats.RowMisses++
		// ACT: respect tRRD across the rank and the command bus.
		act := max64(start, ch.cmdFree, ch.lastAct+t.rrd)
		ch.lastAct = act
		b.openRow = row
		b.casReady = act + t.rcd
		b.preReady = act + t.ras
	default:
		m.stats.RowMisses++
		m.stats.RowConflicts++
		// PRE must respect tRAS since the opening ACT, the read-to-PRE
		// delay, and write recovery — all folded into preReady.
		pre := max64(start, ch.cmdFree, b.preReady)
		act := max64(pre+t.rp, ch.lastAct+t.rrd)
		ch.lastAct = act
		b.openRow = row
		b.casReady = act + t.rcd
		b.preReady = act + t.ras
	}

	// CAS issue: ACT-to-CAS readiness, command bus, CAS-to-CAS spacing, and
	// write-to-read turnaround when a read follows a write on this bank.
	cas := max64(start, b.casReady, ch.cmdFree)
	if !r.Write && b.lastWriteEnd > 0 {
		cas = max64(cas, b.lastWriteEnd+t.wtr)
	}
	ch.cmdFree = cas + t.ccd

	// Data burst occupies the channel's data bus for tBL.
	casLat := t.cl
	if r.Write {
		casLat = t.cwl
	}
	dataStart := max64(cas+casLat, ch.dataFre)
	dataEnd := dataStart + t.bl
	ch.dataFre = dataEnd
	m.stats.DataBusBusy += t.bl

	if r.Write {
		b.lastWriteEnd = dataEnd
		b.preReady = max64(b.preReady, dataEnd+t.wr)
		m.stats.Writes++
		m.stats.TotalWriteLatency += uint64(dataEnd - r.Arrival)
	} else {
		b.preReady = max64(b.preReady, cas+t.rtp)
		m.stats.Reads++
		m.stats.TotalReadLatency += uint64(dataEnd - r.Arrival)
	}

	// The channel has committed decisions up to the CAS issue point.
	if cas > ch.now {
		ch.now = cas
	}
	r.finish = dataEnd
	r.served = true

	if m.audit != nil {
		m.audit(ServiceEvent{
			Channel: int(r.ch), Bank: int(p.bank), Row: row, Write: r.Write,
			RowHit: rowHit, CAS: cas, DataStart: dataStart, DataEnd: dataEnd,
		})
	}
}

// Horizon returns the scheduling horizon of the channel serving line: the
// later of its command horizon and data-bus free time. Cores use it to model
// finite write buffers — when the backlog behind a write grows too deep, the
// issuing core must stall.
func (m *Memory) Horizon(line uint64) int64 {
	chIdx, _, _, _ := m.geometry(line)
	ch := m.channels[chIdx]
	if ch.dataFre > ch.now {
		return ch.dataFre
	}
	return ch.now
}

// BulkTransferCycles returns the CPU cycles needed to stream nPages full
// pages through this tier at its peak bandwidth plus a fixed per-page
// controller overhead. Migration engines use the slower of the two tiers'
// figures (the paper: "the cost of migrating a page ... is governed by the
// slowest memory in the system").
func (m *Memory) BulkTransferCycles(nPages int) int64 {
	if nPages <= 0 {
		return 0
	}
	bytes := float64(nPages) * 4096
	cycles := int64(bytes / m.cfg.PeakBandwidth())
	const perPageOverhead = 200 // controller + remap update per page
	return cycles + int64(nPages)*perPageOverhead
}

// RecordBulkTransfer accounts a completed bulk migration burst against the
// tier's stats and invalidates every open row (the burst walks the whole
// array, destroying row locality).
func (m *Memory) RecordBulkTransfer(nPages int, cycles int64) {
	m.stats.BulkTransfers++
	m.stats.BulkTransferredPages += uint64(nPages)
	m.stats.BulkTransferCyclesPaid += cycles
	for _, ch := range m.channels {
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		ch.now += cycles
		ch.cmdFree = max64(ch.cmdFree, ch.now)
		ch.dataFre = max64(ch.dataFre, ch.now)
	}
}

// AdvanceTo moves every channel's scheduling horizon forward to cycle (used
// after externally-imposed pauses so stale horizons don't grant free
// bandwidth). It never moves horizons backward.
func (m *Memory) AdvanceTo(cycle int64) {
	for _, ch := range m.channels {
		if ch.now < cycle {
			ch.now = cycle
		}
	}
}

func max64(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
