package faultsim

import (
	"math"
	"testing"

	"hmem/internal/ecc"
)

func TestOrganizationValidate(t *testing.T) {
	for _, org := range []Organization{DDR3ChipKill(), HBMSecDed()} {
		if err := org.Validate(); err != nil {
			t.Errorf("%s rejected: %v", org.Name, err)
		}
	}
	bad := DDR3ChipKill()
	bad.Chips = 0
	if bad.Validate() == nil {
		t.Error("zero chips accepted")
	}
	bad = DDR3ChipKill()
	bad.Geom.Rows = 0
	if bad.Validate() == nil {
		t.Error("zero rows accepted")
	}
	bad = DDR3ChipKill()
	bad.Geom.GBPerChip = 0
	if bad.Validate() == nil {
		t.Error("zero capacity accepted")
	}
	bad = DDR3ChipKill()
	bad.RawFITMultiplier = 0
	if bad.Validate() == nil {
		t.Error("zero multiplier accepted")
	}
}

func TestDataGB(t *testing.T) {
	ddr := DDR3ChipKill()
	if got := ddr.DataGB(); math.Abs(got-8.0) > 1e-9 {
		t.Errorf("DDR data capacity = %v GB, want 8 (16 data chips x 0.5)", got)
	}
	hbm := HBMSecDed()
	if got := hbm.DataGB(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("HBM data capacity = %v GB, want 1", got)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeBit: "bit", ModeWord: "word", ModeColumn: "column",
		ModeRow: "row", ModeBank: "bank", ModeRank: "rank", Mode(99): "mode(?)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("mode %d: %q", m, m.String())
		}
	}
}

func TestRatesAccessors(t *testing.T) {
	r := SridharanTransient()
	sum := r.Bit + r.Word + r.Column + r.Row + r.Bank
	if math.Abs(r.Total()-sum) > 1e-12 {
		t.Fatalf("Total = %v, want %v", r.Total(), sum)
	}
	for m := ModeBit; m < numModes; m++ {
		if r.of(m) < 0 {
			t.Fatalf("negative rate for %v", m)
		}
	}
	if r.of(numModes) != 0 {
		t.Fatal("unknown mode rate must be 0")
	}
	// Bit faults dominate transient FITs in the field study.
	if r.Bit < r.Word || r.Bit < r.Bank {
		t.Fatal("bit rate should dominate")
	}
}

func TestIntersects(t *testing.T) {
	g := Geometry{Banks: 8, Rows: 64, Cols: 64}
	bit := func(b, r, c int) fault { return fault{mode: ModeBit, bank: b, row: r, col: c} }
	cases := []struct {
		name string
		a, b fault
		want bool
	}{
		{"same word", bit(1, 2, 3), bit(1, 2, 3), true},
		{"different bank", bit(1, 2, 3), bit(2, 2, 3), false},
		{"different row", bit(1, 2, 3), bit(1, 3, 3), false},
		{"different col", bit(1, 2, 3), bit(1, 2, 4), false},
		{"row fault spans cols", fault{mode: ModeRow, bank: 1, row: 2, col: 9}, bit(1, 2, 3), true},
		{"column fault spans rows", fault{mode: ModeColumn, bank: 1, row: 9, col: 3}, bit(1, 5, 3), true},
		{"bank fault spans all", fault{mode: ModeBank, bank: 1, row: 9, col: 9}, bit(1, 5, 3), true},
		{"bank fault other bank", fault{mode: ModeBank, bank: 2}, bit(1, 5, 3), false},
		{"row vs column cross", fault{mode: ModeRow, bank: 1, row: 7}, fault{mode: ModeColumn, bank: 1, col: 9}, true},
		{"two rows different rows", fault{mode: ModeRow, bank: 1, row: 7}, fault{mode: ModeRow, bank: 1, row: 8}, false},
	}
	for _, c := range cases {
		if got := intersects(c.a, c.b, g); got != c.want {
			t.Errorf("%s: intersects = %v, want %v", c.name, got, c.want)
		}
		if got := intersects(c.b, c.a, g); got != c.want {
			t.Errorf("%s (swapped): intersects = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSingleFaultAdjudication(t *testing.T) {
	// ChipKill corrects every single-chip fault mode.
	s := NewStudy(DDR3ChipKill(), SridharanTransient(), 1)
	for m := ModeBit; m < ModeRank; m++ {
		if s.uncorrectable([]fault{{chip: 3, mode: m, bank: 1, row: 2, col: 3}}) {
			t.Errorf("chipkill failed to correct single %v fault", m)
		}
	}
	// SEC-DED corrects bit and column faults but not word/row/bank.
	h := NewStudy(HBMSecDed(), SridharanTransient(), 1)
	correctable := map[Mode]bool{ModeBit: true, ModeColumn: true}
	for m := ModeBit; m < ModeRank; m++ {
		got := !h.uncorrectable([]fault{{chip: 0, mode: m, bank: 1, row: 2, col: 3}})
		if got != correctable[m] {
			t.Errorf("secded single %v fault: correctable=%v, want %v", m, got, correctable[m])
		}
	}
}

func TestDoubleFaultAdjudication(t *testing.T) {
	ck := NewStudy(DDR3ChipKill(), SridharanTransient(), 1)
	// Two chips, same bank, one is a bank fault: word has two bad symbols.
	bad := []fault{
		{chip: 0, mode: ModeBank, bank: 2},
		{chip: 5, mode: ModeBit, bank: 2, row: 10, col: 20},
	}
	if !ck.uncorrectable(bad) {
		t.Error("cross-chip intersecting faults must be uncorrectable under chipkill")
	}
	// Same two faults on the same chip: still one symbol.
	sameChip := []fault{
		{chip: 0, mode: ModeBank, bank: 2},
		{chip: 0, mode: ModeBit, bank: 2, row: 10, col: 20},
	}
	if ck.uncorrectable(sameChip) {
		t.Error("same-chip faults must stay correctable under chipkill")
	}
	// Different banks: no shared word.
	disjoint := []fault{
		{chip: 0, mode: ModeBank, bank: 2},
		{chip: 5, mode: ModeBit, bank: 3, row: 10, col: 20},
	}
	if ck.uncorrectable(disjoint) {
		t.Error("non-intersecting faults must be correctable")
	}

	// SEC-DED: two bit faults in the same word of the same chip.
	sd := NewStudy(HBMSecDed(), SridharanTransient(), 1)
	twoBits := []fault{
		{chip: 1, mode: ModeBit, bank: 0, row: 5, col: 6},
		{chip: 1, mode: ModeBit, bank: 0, row: 5, col: 6},
	}
	if !sd.uncorrectable(twoBits) {
		t.Error("two bits in one word must defeat SEC-DED")
	}
	// Different chips never share a word in the die-stacked organization.
	twoChips := []fault{
		{chip: 1, mode: ModeBit, bank: 0, row: 5, col: 6},
		{chip: 2, mode: ModeBit, bank: 0, row: 5, col: 6},
	}
	if sd.uncorrectable(twoChips) {
		t.Error("bits on different dies must not combine under SEC-DED")
	}
}

func TestSingleFaultOutcomeMatchesCodecBehaviour(t *testing.T) {
	// The fast adjudication must agree with the real codecs for
	// representative patterns: one bit for SEC-DED bit faults; a full
	// symbol for chipkill chip faults; many bits in a word for row faults.
	if singleFaultOutcome(ecc.SECDED, ModeBit) != ecc.Corrected {
		t.Error("secded bit fault should be corrected")
	}
	if singleFaultOutcome(ecc.SECDED, ModeRow) != ecc.DetectedUncorrectable {
		t.Error("secded row fault should be uncorrectable")
	}
	if singleFaultOutcome(ecc.ChipKillSSC, ModeBank) != ecc.Corrected {
		t.Error("chipkill bank fault (one chip) should be corrected")
	}
	if singleFaultOutcome(ecc.None, ModeBit) != ecc.DetectedUncorrectable {
		t.Error("unprotected memory cannot correct anything")
	}
}

func TestPoissonPMF(t *testing.T) {
	// Sums to ~1 and matches known values.
	lambda := 2.5
	sum := 0.0
	for k := 0; k < 50; k++ {
		sum += poissonPMF(lambda, k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", sum)
	}
	if got := poissonPMF(lambda, 0); math.Abs(got-math.Exp(-2.5)) > 1e-12 {
		t.Fatalf("P(0) = %v", got)
	}
	if got := poissonPMF(0, 0); got != 1 {
		t.Fatalf("P(0;0) = %v", got)
	}
	if got := poissonPMF(0, 3); got != 0 {
		t.Fatalf("P(3;0) = %v", got)
	}
}

func TestStudyRunValidation(t *testing.T) {
	s := NewStudy(DDR3ChipKill(), SridharanTransient(), 1)
	if _, err := s.Run(0); err == nil {
		t.Error("zero trials accepted")
	}
	s.HorizonHours = 0
	if _, err := s.Run(100); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := NewStudy(Organization{}, SridharanTransient(), 1)
	if _, err := bad.Run(100); err == nil {
		t.Error("invalid organization accepted")
	}
}

func TestStudyDeterminism(t *testing.T) {
	run := func() Result {
		r, err := NewStudy(HBMSecDed(), SridharanTransient(), 42).Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.PUnc != b.PUnc || a.UncFITPerGB != b.UncFITPerGB {
		t.Fatal("study is not deterministic")
	}
}

// TestStudyWorkerCountInvariance: the Monte-Carlo estimate is a pure
// function of (seed, trials) — the worker count sharding the trials must
// never change a single bit of the result. 5000 trials spans multiple
// shards per stratum, including a partial tail shard.
func TestStudyWorkerCountInvariance(t *testing.T) {
	run := func(workers int) Result {
		s := NewStudy(DDR3ChipKill(), SridharanTransient(), 42)
		s.Workers = workers
		r, err := s.Run(5000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 7, 0} {
		got := run(workers)
		if got.PUnc != ref.PUnc || got.UncFITPerGB != ref.UncFITPerGB ||
			got.UncFITPerRank != ref.UncFITPerRank {
			t.Fatalf("workers=%d diverged: PUnc %v vs %v", workers, got.PUnc, ref.PUnc)
		}
		for k := range ref.PUncGivenK {
			if got.PUncGivenK[k] != ref.PUncGivenK[k] {
				t.Fatalf("workers=%d: P(unc|%d) = %v, want %v",
					workers, k, got.PUncGivenK[k], ref.PUncGivenK[k])
			}
		}
		for m, outs := range ref.SingleFaultOutcomes {
			for o, n := range outs {
				if got.SingleFaultOutcomes[m][o] != n {
					t.Fatalf("workers=%d: outcome tally diverged for %v/%v", workers, m, o)
				}
			}
		}
	}
}

func TestHBMSingleFaultUncorrectableFraction(t *testing.T) {
	res, err := NewStudy(HBMSecDed(), SridharanTransient(), 7).Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	// P(unc | 1 fault) should approximate (word+row+bank)/total = 2.4/18.
	want := (1.4 + 0.2 + 0.8) / 18.0
	if math.Abs(res.PUncGivenK[1]-want) > 0.01 {
		t.Fatalf("P(unc|1) = %v, want ~%v", res.PUncGivenK[1], want)
	}
	// Outcome bookkeeping exists for every mode and only uses the expected
	// outcome classes.
	totalSingles := 0
	for m, outs := range res.SingleFaultOutcomes {
		for o, n := range outs {
			if o != ecc.Corrected && o != ecc.DetectedUncorrectable {
				t.Errorf("mode %v recorded unexpected outcome %v", m, o)
			}
			totalSingles += n
		}
	}
	if totalSingles != res.Trials {
		t.Fatalf("single-fault tally = %d, want %d", totalSingles, res.Trials)
	}
}

func TestChipKillMultiFaultIsRareButReal(t *testing.T) {
	res, err := NewStudy(DDR3ChipKill(), SridharanTransient(), 11).Run(50000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PUncGivenK[1] != 0 {
		t.Fatalf("chipkill must correct all single faults, got %v", res.PUncGivenK[1])
	}
	if res.PUncGivenK[2] <= 0 {
		t.Fatal("double-fault stratum should show some uncorrectable patterns")
	}
	if res.PUncGivenK[2] > 0.05 {
		t.Fatalf("P(unc|2) = %v implausibly high", res.PUncGivenK[2])
	}
	// Monotone-ish: more faults, more risk (allow sampling noise headroom).
	if res.PUncGivenK[4] < res.PUncGivenK[2]/2 {
		t.Fatalf("P(unc|4)=%v much below P(unc|2)=%v", res.PUncGivenK[4], res.PUncGivenK[2])
	}
}

func BenchmarkStudyHBM(b *testing.B) {
	s := NewStudy(HBMSecDed(), SridharanTransient(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(2000); err != nil {
			b.Fatal(err)
		}
	}
}
