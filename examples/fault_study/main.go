// Fault study: the reliability substrate on its own. Runs the §3.2
// Monte-Carlo fault studies for both memory organizations, then the
// extended study with permanent faults and scrubbing — the analysis an
// architect would run before committing to an ECC scheme.
//
//	go run ./examples/fault_study
package main

import (
	"fmt"
	"log"

	"hmem/internal/faultsim"
)

func main() {
	const trials = 20000
	rates := faultsim.SridharanTransient()

	fmt.Println("== transient-only (the paper's §3.2 configuration) ==")
	var perGB []float64 // DDR, then HBM
	for _, org := range []faultsim.Organization{faultsim.DDR3ChipKill(), faultsim.HBMSecDed()} {
		res, err := faultsim.NewStudy(org, rates, 0x57D).Run(trials)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s P(unc|1 fault)=%.3f  P(unc|2)=%.4f  unc FIT/GB=%.4f\n",
			org.Name, res.PUncGivenK[1], res.PUncGivenK[2], res.UncFITPerGB)
		perGB = append(perGB, res.UncFITPerGB)
	}
	fmt.Printf("HBM:DDR uncorrectable FIT ratio = %.0fx -> why perf-focused placement costs ~300x SER\n\n", perGB[1]/perGB[0])

	fmt.Println("== extension: permanent faults + scrubbing ==")
	for _, scrub := range []float64{0, 24, 1} {
		s := faultsim.NewScrubStudy(faultsim.DDR3ChipKill(), 0x5C12B)
		s.ScrubIntervalHours = scrub
		res, err := s.Run(trials)
		if err != nil {
			log.Fatal(err)
		}
		label := "no scrubbing"
		if scrub > 0 {
			label = fmt.Sprintf("scrub every %.0fh", scrub)
		}
		fmt.Printf("DDR3+ChipKill, %-18s P(unc|2 faults)=%.4f  unc FIT/GB=%.4f\n",
			label, res.PUncGivenK[2], res.UncFITPerGB)
	}
	fmt.Println()
	fmt.Println("Scrubbing shortens transient-fault lifetimes, cutting the chance")
	fmt.Println("that two faults coexist in one ChipKill word; permanent faults")
	fmt.Println("are immune to it (and dominate the residual rate).")
}
