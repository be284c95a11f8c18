// Command faultsim runs the Monte-Carlo DRAM fault study (§3.2) for both
// memory organizations and prints per-mode outcomes and uncorrectable FIT
// rates. This is the stand-in for the FaultSim tool the paper uses.
//
// Usage:
//
//	faultsim [-trials 20000] [-years 5] [-hbm-multiplier 2.0]
package main

import (
	"flag"
	"fmt"
	"os"

	"hmem/internal/ecc"
	"hmem/internal/faultsim"
)

func main() {
	var (
		trials   = flag.Int("trials", 20000, "Monte-Carlo trials per fault-count stratum")
		years    = flag.Float64("years", 5, "fault accumulation horizon in years")
		mult     = flag.Float64("hbm-multiplier", 2.0, "HBM raw-FIT multiplier vs field-study DDR devices")
		parallel = flag.Int("parallel", 0, "max concurrent trial shards (<=0 = NumCPU)")
	)
	flag.Parse()

	rates := faultsim.SridharanTransient()
	fmt.Printf("transient FIT per chip (Sridharan & Liberty SC'12): bit=%.1f word=%.1f column=%.1f row=%.1f bank=%.1f beyond-ECC=%.2f\n\n",
		rates.Bit, rates.Word, rates.Column, rates.Row, rates.Bank, rates.Rank)

	run := func(org faultsim.Organization) faultsim.Result {
		study := faultsim.NewStudy(org, rates, 0xFA7A)
		study.HorizonHours = *years * 8760
		study.Workers = *parallel
		res, err := study.Run(*trials)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultsim:", err)
			os.Exit(1)
		}
		return res
	}

	hbm := faultsim.HBMSecDed()
	hbm.RawFITMultiplier = *mult
	ddr, hbmRes := run(faultsim.DDR3ChipKill()), run(hbm)
	for _, res := range []faultsim.Result{ddr, hbmRes} {
		fmt.Printf("== %s (%s, %d chips, %.1f GB data) ==\n",
			res.Org.Name, res.Org.Scheme, res.Org.Chips, res.Org.DataGB())
		fmt.Printf("expected faults per rank-horizon: %.4f\n", res.LambdaFaults)
		fmt.Println("single-fault outcomes by mode:")
		for m := faultsim.ModeBit; m < faultsim.ModeRank; m++ {
			outs := res.SingleFaultOutcomes[m]
			fmt.Printf("  %-7s corrected=%-6d uncorrectable=%d\n",
				m, outs[ecc.Corrected], outs[ecc.DetectedUncorrectable]+outs[ecc.Miscorrected])
		}
		fmt.Print("P(uncorrectable | k faults):")
		for k := 1; k < len(res.PUncGivenK); k++ {
			fmt.Printf(" k=%d:%.4f", k, res.PUncGivenK[k])
		}
		fmt.Printf("\nP(uncorrectable in horizon) = %.3e\n", res.PUnc)
		fmt.Printf("uncorrectable FIT: %.4f per rank, %.4f per GB\n\n",
			res.UncFITPerRank, res.UncFITPerGB)
	}

	// The ratio of the two studies printed above, at the same horizon and
	// HBM multiplier.
	fmt.Printf("HBM/DDR uncorrectable FIT ratio per GB: %.0fx\n", hbmRes.UncFITPerGB/ddr.UncFITPerGB)
}
