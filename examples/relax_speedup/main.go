// Relax speedup: compare the original AlphaFold relaxation protocol with
// the paper's optimized single-pass method, on CPU and GPU, over CASP14-like
// models of increasing size — the Sections 4.4/4.5 story in miniature.
//
// Run with: go run ./examples/relax_speedup
package main

import (
	"fmt"
	"log"

	"repro/internal/casp"
	"repro/internal/relax"
)

func main() {
	set := casp.NewSet(3)

	fmt.Println("relaxation protocol comparison (times from the calibrated platform models,")
	fmt.Println("violations from actually minimizing each structure):")
	fmt.Println()
	fmt.Printf("%-8s %6s %10s | %14s | %9s %9s %9s | %7s\n",
		"TARGET", "LEN", "HEAVYATOMS", "BUMPS pre/post", "AF2(s)", "CPU(s)", "GPU(s)", "SPEEDUP")

	shown := 0
	for _, tg := range set.Targets {
		if shown >= 8 {
			break
		}
		models := set.ModelsOf(tg.ID)
		if len(models) == 0 {
			continue
		}
		m := models[0]
		before := relax.CountViolations(m.CA)
		if before.Bumps == 0 && shown > 2 {
			continue // prefer structures with visible flaws for the demo
		}
		shown++

		// Run the actual optimized minimization once for the violations.
		opt := relax.DefaultOptions(relax.PlatformGPU)
		opt.HeavyAtoms = m.HeavyAtoms
		rr, err := relax.Relax(m.CA, m.SC, opt)
		if err != nil {
			log.Fatal(err)
		}

		af2 := relax.ModelTime(relax.PlatformAF2, m.HeavyAtoms, 1)
		cpu := relax.ModelTime(relax.PlatformCPU, m.HeavyAtoms, 1)
		gpu := relax.ModelTime(relax.PlatformGPU, m.HeavyAtoms, 1)
		fmt.Printf("%-8s %6d %10d | %6d / %5d | %9.0f %9.0f %9.0f | %6.1fx\n",
			tg.ID, tg.Length, m.HeavyAtoms, rr.Before.Bumps, rr.After.Bumps,
			af2, cpu, gpu, af2/gpu)
	}

	fmt.Println()
	fmt.Println("genome-scale projection (3205 structures, 48 GPU workers, as in Sec 4.5):")
	var totalGPU float64
	for i := 0; i < 3205; i++ {
		totalGPU += relax.ModelTime(relax.PlatformGPU, 2560, 1)
	}
	fmt.Printf("  total GPU-seconds %.0f -> wall %.1f min on 48 workers (paper: 22.89 min)\n",
		totalGPU, totalGPU/48/60)
}
