package faultsim

import (
	"context"
	"fmt"
	"math"

	"hmem/internal/ecc"
	"hmem/internal/exec"
	"hmem/internal/obs"
	"hmem/internal/xrand"
)

// Study runs Monte-Carlo fault-accumulation experiments for one rank
// organization over an accumulation horizon.
type Study struct {
	Org   Organization
	Rates Rates
	// HorizonHours is the fault-accumulation window (FaultSim-style studies
	// use multi-year horizons so multi-fault intersections are represented).
	HorizonHours float64
	// MaxFaults caps the stratification depth; Poisson mass beyond it is
	// folded into the deepest stratum.
	MaxFaults int
	// Seed drives the deterministic RNG.
	Seed uint64
	// Workers bounds the goroutines sharding the Monte-Carlo trials
	// (non-positive = one per CPU). The result is a pure function of
	// (Seed, trials): trials are decomposed into fixed-size shards whose
	// RNG streams are derived from (Seed, stratum, shard), so any worker
	// count produces bit-identical estimates.
	Workers int
}

// shardTrials is the fixed Monte-Carlo shard size. It determines the
// trial-to-RNG-stream assignment and therefore must never depend on the
// worker count; changing it changes the (still deterministic) estimates.
const shardTrials = 2048

// NewStudy returns a study with the defaults used throughout the paper
// reproduction: a 5-year horizon and stratification up to 4 faults.
func NewStudy(org Organization, rates Rates, seed uint64) *Study {
	return &Study{
		Org:          org,
		Rates:        rates,
		HorizonHours: 5 * 8760,
		MaxFaults:    4,
		Seed:         seed,
	}
}

// Result summarizes a study.
type Result struct {
	Org Organization
	// PUnc is the probability of at least one uncorrectable error in the
	// horizon for the whole rank.
	PUnc float64
	// PUncGivenK[k] is the Monte-Carlo estimate of P(uncorrectable | k
	// faults accumulated), for k = 0..MaxFaults.
	PUncGivenK []float64
	// LambdaFaults is the expected fault count per rank-horizon (non-rank
	// modes).
	LambdaFaults float64
	// UncFITPerRank is the uncorrectable-error rate in FIT for the rank.
	UncFITPerRank float64
	// UncFITPerGB normalizes by the rank's data capacity — the figure SER
	// computations consume.
	UncFITPerGB float64
	// SingleFaultOutcomes tallies the decode outcome of every single-fault
	// trial by mode, mirroring the paper's "recorded as detected,
	// corrected, or uncorrected" bookkeeping.
	SingleFaultOutcomes map[Mode]map[ecc.Outcome]int
	// Trials is the Monte-Carlo trial count per stratum.
	Trials int
}

// Run executes the study with the given trials per stratum.
func (s *Study) Run(trials int) (Result, error) {
	return s.RunCtx(context.Background(), trials)
}

// ShardJob names one Monte-Carlo shard: stratum K (accumulated fault count),
// shard index within the stratum, and N trials. A shard's tally is a pure
// function of (Study.Seed, K, Shard) — the RNG stream is derived from exactly
// those — so any node that agrees on the study parameters reproduces it
// bit-identically. This is the unit of distributed work for cluster runs.
type ShardJob struct {
	K     int `json:"k"`
	Shard int `json:"shard"`
	N     int `json:"n"`
}

// ShardTally is one shard's integer tallies: uncorrectable-trial count plus,
// for single-fault strata, the per-mode decode outcomes. Integer tallies
// merge exactly (no float order sensitivity), which is what makes sharded
// cluster execution byte-identical to a local run.
type ShardTally struct {
	Unc      int                          `json:"unc"`
	Outcomes map[Mode]map[ecc.Outcome]int `json:"outcomes,omitempty"`
}

// Shards decomposes a trial budget into the study's fixed shard plan, in the
// canonical order tallies must be merged in. The plan depends only on
// (MaxFaults, trials) — never on the worker count.
func (s *Study) Shards(trials int) []ShardJob {
	var jobs []ShardJob
	for k := 1; k <= s.MaxFaults; k++ {
		for off, shard := 0, 0; off < trials; off, shard = off+shardTrials, shard+1 {
			n := shardTrials
			if trials-off < n {
				n = trials - off
			}
			jobs = append(jobs, ShardJob{K: k, Shard: shard, N: n})
		}
	}
	return jobs
}

// RunShard executes one shard's Monte-Carlo trials. Safe for concurrent use;
// the tally is a pure function of (Seed, job).
func (s *Study) RunShard(j ShardJob) ShardTally {
	rng := xrand.New(xrand.Derive(s.Seed, uint64(j.K), uint64(j.Shard)))
	var t ShardTally
	if j.K == 1 {
		t.Outcomes = make(map[Mode]map[ecc.Outcome]int)
		for m := ModeBit; m < ModeRank; m++ {
			t.Outcomes[m] = make(map[ecc.Outcome]int)
		}
	}
	for n := 0; n < j.N; n++ {
		faults := s.sampleFaults(rng, j.K)
		if s.uncorrectable(faults) {
			t.Unc++
		}
		if j.K == 1 {
			out := singleFaultOutcome(s.Org.Scheme, faults[0].mode)
			t.Outcomes[faults[0].mode][out]++
		}
	}
	return t
}

// validate checks the study parameters shared by RunCtx and Combine.
func (s *Study) validate(trials int) error {
	if err := s.Org.Validate(); err != nil {
		return err
	}
	if trials <= 0 {
		return fmt.Errorf("faultsim: trials must be positive, got %d", trials)
	}
	if s.HorizonHours <= 0 || s.MaxFaults < 1 {
		return fmt.Errorf("faultsim: horizon and MaxFaults must be positive")
	}
	return nil
}

// Combine merges shard tallies (tallies[i] answering jobs[i]) in job order
// and finishes the stratified estimate: Poisson-weighted combination, tail
// folding, the rank-mode term, and the horizon-to-FIT conversion. jobs must
// be exactly Shards(trials); mismatched lengths are an error so a dropped
// shard can never silently skew the estimate.
func (s *Study) Combine(jobs []ShardJob, tallies []ShardTally, trials int) (Result, error) {
	if err := s.validate(trials); err != nil {
		return Result{}, err
	}
	if len(jobs) != len(tallies) {
		return Result{}, fmt.Errorf("faultsim: %d shard jobs but %d tallies", len(jobs), len(tallies))
	}

	// Expected fault counts in the horizon.
	perChipFIT := s.Rates.Total() * s.Org.RawFITMultiplier
	lambda := perChipFIT * 1e-9 * s.HorizonHours * float64(s.Org.Chips)
	lambdaRank := s.Rates.Rank * s.Org.RawFITMultiplier * 1e-9 * s.HorizonHours * float64(s.Org.Chips)

	res := Result{
		Org:                 s.Org,
		PUncGivenK:          make([]float64, s.MaxFaults+1),
		LambdaFaults:        lambda,
		SingleFaultOutcomes: make(map[Mode]map[ecc.Outcome]int),
		Trials:              trials,
	}
	for m := ModeBit; m < ModeRank; m++ {
		res.SingleFaultOutcomes[m] = make(map[ecc.Outcome]int)
	}
	uncByK := make([]int, s.MaxFaults+1)
	for i, t := range tallies {
		if jobs[i].K < 1 || jobs[i].K > s.MaxFaults {
			return Result{}, fmt.Errorf("faultsim: shard stratum %d out of range [1,%d]", jobs[i].K, s.MaxFaults)
		}
		uncByK[jobs[i].K] += t.Unc
		for m, outs := range t.Outcomes {
			for o, n := range outs {
				res.SingleFaultOutcomes[m][o] += n
			}
		}
	}
	for k := 1; k <= s.MaxFaults; k++ {
		res.PUncGivenK[k] = float64(uncByK[k]) / float64(trials)
	}

	// Combine with Poisson weights; the tail beyond MaxFaults reuses the
	// deepest stratum's estimate (conservative: deeper strata only get
	// worse, but their mass is negligible at field rates).
	pUnc := 0.0
	tailMass := 1.0 // P(N > MaxFaults) accumulator
	for k := 0; k <= s.MaxFaults; k++ {
		w := poissonPMF(lambda, k)
		tailMass -= w
		pUnc += w * res.PUncGivenK[k]
	}
	if tailMass > 0 {
		pUnc += tailMass * res.PUncGivenK[s.MaxFaults]
	}
	// Rank-level (beyond-ECC) faults are uncorrectable by definition.
	pRank := 1 - math.Exp(-lambdaRank)
	res.PUnc = 1 - (1-pUnc)*(1-pRank)

	// Convert the horizon probability to a rate (FIT).
	ratePerHour := -math.Log(1-res.PUnc) / s.HorizonHours
	res.UncFITPerRank = ratePerHour * 1e9
	res.UncFITPerGB = res.UncFITPerRank / s.Org.DataGB()
	return res, nil
}

// RunCtx is Run with observability: the whole study runs under a
// "faultsim.study" span (attrs: organization, trials, shard count), each
// shard is an "exec.task" span via the fan-out, and shard completions report
// progress. ctx is only consulted once at entry plus per shard dispatch —
// the Monte-Carlo inner loops never see it — and the result stays a pure
// function of (Seed, trials) regardless of what ctx carries.
func (s *Study) RunCtx(ctx context.Context, trials int) (Result, error) {
	if err := s.validate(trials); err != nil {
		return Result{}, err
	}

	// Per-stratum Monte Carlo, sharded. Each (stratum, shard) pair owns a
	// fixed slice of the trial budget and an RNG stream derived from it, so
	// shard tallies can be computed on any number of workers — or any number
	// of cluster nodes — and merged in shard order with a bit-identical
	// outcome.
	jobs := s.Shards(trials)
	if obs.Enabled(ctx) {
		var sp *obs.Span
		ctx, sp = obs.Start(ctx, "faultsim.study",
			obs.Str("org", s.Org.Name),
			obs.Int("trials", int64(trials)),
			obs.Int("shards", int64(len(jobs))))
		defer sp.End()
	}
	tallies, err := exec.Map(ctx, s.Workers, len(jobs), func(i int) (ShardTally, error) {
		return s.RunShard(jobs[i]), nil
	})
	if err != nil {
		return Result{}, err
	}
	return s.Combine(jobs, tallies, trials)
}

// sampleFaults draws k faults: chip uniform, mode proportional to FIT,
// location uniform in the chip grid.
func (s *Study) sampleFaults(rng *xrand.RNG, k int) []fault {
	g := s.Org.Geom
	total := s.Rates.Total()
	out := make([]fault, k)
	for i := range out {
		u := rng.Float64() * total
		var m Mode
		for m = ModeBit; m < ModeRank; m++ {
			u -= s.Rates.of(m)
			if u < 0 {
				break
			}
		}
		if m >= ModeRank {
			m = ModeBank
		}
		out[i] = fault{
			chip: rng.Intn(s.Org.Chips),
			mode: m,
			bank: rng.Intn(g.Banks),
			row:  rng.Intn(g.Rows),
			col:  rng.Intn(g.Cols),
		}
	}
	return out
}

// uncorrectable adjudicates an accumulated fault set under the rank's ECC.
func (s *Study) uncorrectable(faults []fault) bool {
	switch s.Org.Scheme {
	case ecc.None:
		return len(faults) > 0
	case ecc.SECDED:
		// Words live inside one chip: any multi-bit-per-word mode is fatal;
		// otherwise two single-bit-class faults in the same chip whose
		// footprints share a word are fatal.
		for _, f := range faults {
			if multiBitPerWord(f.mode) {
				return true
			}
		}
		for i := 0; i < len(faults); i++ {
			for j := i + 1; j < len(faults); j++ {
				if faults[i].chip == faults[j].chip &&
					intersects(faults[i], faults[j], s.Org.Geom) {
					return true
				}
			}
		}
		return false
	case ecc.ChipKillSSC:
		// Every word spans all chips, one symbol per chip: a single chip's
		// fault of any mode stays within one symbol (correctable). Two
		// faults on different chips intersecting in a word corrupt two
		// symbols — uncorrectable.
		for i := 0; i < len(faults); i++ {
			for j := i + 1; j < len(faults); j++ {
				if faults[i].chip != faults[j].chip &&
					intersects(faults[i], faults[j], s.Org.Geom) {
					return true
				}
			}
		}
		return false
	default:
		return true
	}
}

// singleFaultOutcome classifies what the ECC does with one isolated fault,
// cross-checked against the real codecs in the ecc package by tests.
func singleFaultOutcome(scheme ecc.Scheme, m Mode) ecc.Outcome {
	switch scheme {
	case ecc.SECDED:
		if multiBitPerWord(m) {
			// A whole-word/row/bank fault puts many bits in one word; the
			// decoder detects even-weight patterns and miscorrects others —
			// either way the data is lost.
			return ecc.DetectedUncorrectable
		}
		return ecc.Corrected
	case ecc.ChipKillSSC:
		return ecc.Corrected
	case ecc.None:
		return ecc.DetectedUncorrectable
	default:
		return ecc.DetectedUncorrectable
	}
}

// poissonPMF returns P(N = k) for N ~ Poisson(lambda).
func poissonPMF(lambda float64, k int) float64 {
	if lambda <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	logp := -lambda + float64(k)*math.Log(lambda) - logFactorial(k)
	return math.Exp(logp)
}

func logFactorial(k int) float64 {
	s := 0.0
	for i := 2; i <= k; i++ {
		s += math.Log(float64(i))
	}
	return s
}

// TierFITs bundles the per-GB uncorrectable FIT of every tier of a topology
// — the numbers the SER model consumes.
type TierFITs struct {
	// PerGB holds each tier's uncorrectable FIT per GB by dense tier index.
	PerGB []float64
}

// Of returns tier's uncorrectable FIT per GB. Unknown tiers rate zero.
func (t TierFITs) Of(tier int) float64 {
	if tier >= 0 && tier < len(t.PerGB) {
		return t.PerGB[tier]
	}
	return 0
}
