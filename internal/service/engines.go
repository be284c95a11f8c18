package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"

	"hmem"
	"hmem/internal/exec"
)

// maxEngines caps the engine table. Each engine pins its memoized profiles,
// policy runs and fault studies (megabytes at service sizes), so this count
// bounds hmemd's memory. It exceeds the option-set variety of every steady
// traffic shape in the repository (a load profile's 4 seeds plus the
// defaults; the benchmark's 2 warm seeds plus the defaults).
const maxEngines = 8

// engineKey is an option set in comparable form: every hmem.Options field
// but Parallel, which only changes scheduling (TestEngineKeyCoversOptions).
type engineKey struct {
	scaleDiv, recordsPerCore, faultTrials int
	seed                                  uint64
	fcInterval, meaInterval               int64
	topology, workloads                   string
}

func keyOf(o hmem.Options) engineKey {
	return engineKey{o.ScaleDiv, o.RecordsPerCore, o.FaultTrials, o.Seed,
		o.FCIntervalCycles, o.MEAIntervalCycles, o.Topology, strings.Join(o.Workloads, ",")}
}

// engineTable holds the maxEngines most recently used engines. Eviction
// only drops the table's reference: requests and jobs holding the engine
// finish on it, and the next request for its options builds a fresh one
// with byte-identical results. Evicted engines' counters fold into retired
// totals so /metrics counters never decrease.
type engineTable struct {
	mu            sync.Mutex
	live          []engineEntry // most recently used first
	retiredMemo   exec.MemoStats
	retiredTraces hmem.TraceStats
	evictions     uint64
}

type engineEntry struct {
	key    engineKey
	engine *hmem.Engine
	digest string
}

// get returns the entry for key, marking it most recently used.
func (t *engineTable) get(key engineKey) (engineEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.touch(key)
}

// touch is get with t.mu held.
func (t *engineTable) touch(key engineKey) (engineEntry, bool) {
	i := slices.IndexFunc(t.live, func(en engineEntry) bool { return en.key == key })
	if i < 0 {
		return engineEntry{}, false
	}
	en := t.live[i]
	copy(t.live[1:i+1], t.live[:i])
	t.live[0] = en
	return en, true
}

// add inserts a freshly built entry, evicting the least recently used one
// past maxEngines. If a concurrent request added the key first, add returns
// that entry instead, so a key never has two live engines.
func (t *engineTable) add(en engineEntry) engineEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.touch(en.key); ok {
		return prev
	}
	if len(t.live) == maxEngines {
		old := t.live[maxEngines-1].engine
		t.retiredMemo = t.retiredMemo.Add(old.CacheStats())
		t.retiredTraces = t.retiredTraces.Add(old.TraceStats())
		t.evictions++
		t.live = t.live[:maxEngines-1]
	}
	t.live = slices.Insert(t.live, 0, en)
	return en
}

// stats sums the counters of live and retired engines.
func (t *engineTable) stats() (memo exec.MemoStats, traces hmem.TraceStats, live int, evictions uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	memo, traces = t.retiredMemo, t.retiredTraces
	for _, en := range t.live {
		memo = memo.Add(en.engine.CacheStats())
		traces = traces.Add(en.engine.TraceStats())
	}
	return memo, traces, len(t.live), t.evictions
}

// optionsDigest canonically fingerprints a resolved option set, the
// result-key prefix. Parallel is normalized out, as in engineKey.
func optionsDigest(o hmem.Options) string {
	o.Parallel = 0
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", o)))
	return hex.EncodeToString(sum[:8])
}

// engineFor returns the engine and digest for a request's option patch,
// applied to the resolved defaults.
func (s *Service) engineFor(patch *OptionsPatch) (*hmem.Engine, string, error) {
	return s.engineForOptions(patch.apply(s.resolvedDefaults))
}

// engineForOptions returns the table's engine for an option set — also how
// workers rebuild a shard's engine from its wire options. On coordinators
// every new engine gets the cluster delegate, so its expensive blocks fan
// out to workers from the first request.
func (s *Service) engineForOptions(opts hmem.Options) (*hmem.Engine, string, error) {
	key := keyOf(opts)
	if en, ok := s.engines.get(key); ok {
		return en.engine, en.digest, nil
	}
	e, err := hmem.NewEngine(&opts)
	if err != nil {
		return nil, "", err
	}
	digest := optionsDigest(e.Options())
	if s.cluster != nil && s.cluster.sched != nil {
		d, err := newClusterDelegate(s, e.Options(), digest)
		if err != nil {
			return nil, "", err
		}
		e.SetDelegate(d)
	}
	if s.cfg.TraceWrap != nil {
		e.SetTraceWrap(s.cfg.TraceWrap)
	}
	en := s.engines.add(engineEntry{key, e, digest})
	return en.engine, en.digest, nil
}

// TraceStats sums every engine's trace-delivery counters, evicted ones
// included: generator runs versus coalesced replays (for /metrics and the
// coalescing tests).
func (s *Service) TraceStats() hmem.TraceStats {
	_, traces, _, _ := s.engines.stats()
	return traces
}
