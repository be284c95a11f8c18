// Package core implements the paper's primary contribution: quantifying
// page hotness and page risk (AVF), the quadrant analysis of §4.2, the
// write-ratio risk heuristics of §5.3, the static reliability-aware
// placement policies of §4-5, the saturating hardware counters of §6, and
// the SER model that scores a placement (Equation 2 aggregated over pages).
package core

import (
	"cmp"
	"slices"

	"hmem/internal/avf"
	"hmem/internal/faultsim"
)

// PageStats is the per-page profile every policy consumes: raw access
// counts (hotness) and, when produced by an oracle profiling run, AVF.
type PageStats struct {
	Page   uint64
	Reads  uint64
	Writes uint64
	// AVF is the page's architectural vulnerability factor in [0,1].
	AVF float64
}

// Accesses returns raw hotness: reads + writes (§4.2 "we estimate page
// hotness using raw access counts (reads and writes)").
func (p PageStats) Accesses() uint64 { return p.Reads + p.Writes }

// WrRatio returns the §5.4.1 risk proxy Wr/Rd. Pages never read get the
// write count itself (the limit of W/R as R→1), keeping the ranking total.
func (p PageStats) WrRatio() float64 {
	if p.Reads == 0 {
		return float64(p.Writes)
	}
	return float64(p.Writes) / float64(p.Reads)
}

// Wr2Ratio returns the §5.4.2 proxy Wr²/Rd, which still proxies (low) AVF
// but weights absolute write traffic, avoiding cold pages.
func (p PageStats) Wr2Ratio() float64 {
	w := float64(p.Writes)
	if p.Reads == 0 {
		return w * w
	}
	return w * w / float64(p.Reads)
}

// FromSnapshot converts an AVF tracker snapshot into policy inputs.
func FromSnapshot(snap []avf.PageAVF) []PageStats {
	out := make([]PageStats, len(snap))
	for i, s := range snap {
		out[i] = PageStats{Page: s.Page, Reads: s.Reads, Writes: s.Writes, AVF: s.AVF}
	}
	return out
}

// SortByPage orders stats by page id (canonical order for determinism).
func SortByPage(stats []PageStats) {
	slices.SortFunc(stats, func(a, b PageStats) int { return cmp.Compare(a.Page, b.Page) })
}

// MeanHotness returns the mean access count — the paper's hot/cold threshold
// ("We split the memory footprint of each workload around mean hotness").
func MeanHotness(stats []PageStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var sum uint64
	for _, s := range stats {
		sum += s.Accesses()
	}
	return float64(sum) / float64(len(stats))
}

// MeanAVF returns the mean page AVF — the paper's risk threshold.
func MeanAVF(stats []PageStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range stats {
		sum += s.AVF
	}
	return sum / float64(len(stats))
}

// SERModel scores placements: SER = Σ_pages FITunc(tier) × AVF-share(tier)
// (Equation 2 with the FIT term specialized per tier by the fault study).
// Absolute units are FIT-per-page-GB; only ratios are meaningful, matching
// the paper's "relative to DDRx-only" reporting. The model iterates a
// page's tier shares in ascending tier index — the same accumulation order
// for any topology, so scores are bit-reproducible.
type SERModel struct {
	Fits faultsim.TierFITs
}

// pageGB is the capacity of one 4 KiB page in GB.
const pageGB = 4096.0 / (1 << 30)

// SER scores a finished run from the AVF tracker's tier-attributed snapshot.
func (m SERModel) SER(snap []avf.PageAVF) float64 {
	total := 0.0
	for _, p := range snap {
		for t := range p.ByTier {
			total += m.Fits.Of(t) * p.ByTier[t] * pageGB
		}
	}
	return total
}

// SERAllDDR scores the slow-tier-only baseline for the same snapshot: every
// page's full AVF charged at tier 0's uncorrectable FIT (DDR in the default
// topology).
func (m SERModel) SERAllDDR(snap []avf.PageAVF) float64 {
	total := 0.0
	for _, p := range snap {
		total += m.Fits.Of(0) * p.AVF * pageGB
	}
	return total
}
