// Quickstart: the full pipeline on a small synthetic proteome, using the
// real (non-surrogate) components end to end — sequence library search with
// the k-mer prefilter and Smith-Waterman, MSA feature extraction, surrogate
// AlphaFold inference with dynamic recycling, molecular-mechanics
// relaxation, and PDB export.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fold"
	"repro/internal/msa"
	"repro/internal/pdb"
	"repro/internal/proteome"
	"repro/internal/relax"
	"repro/internal/seqdb"
)

func main() {
	const seed = 7

	// A shared domain universe: proteome targets and database entries
	// descend from the same ancestral families.
	universe := proteome.NewUniverse(seed, 24, 60, 160)

	// A small bacterial proteome of 20 proteins.
	species := proteome.Species{
		Name: "Examplococcus minimus", Code: "EXM", Kingdom: proteome.Prokaryote,
		NumProteins: 20, LenShape: 2.4, LenScale: 90,
		MinLen: 50, MaxLen: 400, HypotheticalFrac: 0.2,
	}
	prot := proteome.Generate(species, universe, seed)

	// Sequence libraries and the real search pipeline (HHblits/HMMER role).
	libs := seqdb.StandardLibraries(universe, seed)
	gen := core.NewRealFeatureGen(libs, msa.DefaultSearchConfig())

	// Ground truth provider + inference engine (the AlphaFold2 surrogate).
	gt := core.NewGroundTruth(seed)
	gt.Register(prot)
	engine := fold.NewEngine(gt, seed)

	outDir, err := os.MkdirTemp("", "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	// The directory's name differs on every run, so it goes to stderr and
	// stdout stays the same from run to run.
	fmt.Fprintf(os.Stderr, "quickstart: models land in %s\n", outDir)
	fmt.Printf("quickstart: %d proteins of %s\n\n", len(prot.Proteins), species.Name)
	fmt.Printf("%-10s %4s %6s %6s %8s %8s %6s\n",
		"ID", "LEN", "DEPTH", "Neff", "pLDDT", "pTMS", "BUMPS")

	for _, p := range prot.Proteins[:10] {
		feats, err := gen.Features(p)
		if err != nil {
			log.Fatal(err)
		}

		// Five models; keep the best by pTMS.
		var best *fold.Prediction
		for m := 0; m < fold.NumModels; m++ {
			pred, err := engine.Infer(fold.Task{
				ID: p.Seq.ID, Length: p.Seq.Len(), Features: feats,
				Model: m, Preset: fold.Genome, NodeMemGB: 16, WantCoords: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			if best == nil || pred.PTMS > best.PTMS {
				best = &pred
			}
		}

		// Geometry optimization with the paper's single-pass GPU protocol.
		rr, err := relax.Relax(best.CA, best.SC, relax.DefaultOptions(relax.PlatformGPU))
		if err != nil {
			log.Fatal(err)
		}

		model, err := pdb.FromTrace(p.Seq.ID, p.Seq.Residues, rr.CA, rr.SC, best.PLDDT)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(outDir, p.Seq.ID+".pdb"))
		if err != nil {
			log.Fatal(err)
		}
		if err := pdb.Write(f, model); err != nil {
			log.Fatal(err)
		}
		f.Close()

		fmt.Printf("%-10s %4d %6d %6.1f %8.1f %8.3f %6d\n",
			p.Seq.ID, p.Seq.Len(), feats.Depth, feats.Neff,
			best.MeanPLDDT, best.PTMS, rr.After.Bumps)
	}
	fmt.Println("\ndone; inspect the PDB files with any molecular viewer")
}
