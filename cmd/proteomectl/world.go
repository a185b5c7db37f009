package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/experiments"
	"repro/internal/fold"
	"repro/internal/pdb"
	"repro/internal/proteome"
	"repro/internal/relax"
	"repro/internal/seq"
)

func speciesCmd(args []string, stdout io.Writer) error {
	if err := parseFlags(flag.NewFlagSet("species", flag.ContinueOnError), args); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-6s %-40s %-11s %9s\n", "CODE", "NAME", "KINGDOM", "PROTEINS")
	for _, sp := range proteome.PaperSpecies() {
		fmt.Fprintf(stdout, "%-6s %-40s %-11s %9d\n", sp.Code, sp.Name, sp.Kingdom, sp.NumProteins)
	}
	return nil
}

func generateCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	code := fs.String("species", "DVU", "species code")
	out := fs.String("out", "", "output FASTA path (default stdout)")
	seedv := fs.Uint64("seed", experiments.DefaultSeed, "campaign seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	sp, err := findSpecies(*code)
	if err != nil {
		return err
	}
	return withOut(*out, stdout, func(w io.Writer) error {
		return seq.WriteFASTA(w, experiments.NewEnv(*seedv).Proteome(sp).Sequences())
	})
}

func predictCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	code := fs.String("species", "DVU", "species code")
	id := fs.String("id", "", "protein ID (e.g. DVU_00001)")
	out := fs.String("out", "", "output PDB path (default stdout)")
	seedv := fs.Uint64("seed", experiments.DefaultSeed, "campaign seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	sp, err := findSpecies(*code)
	if err != nil {
		return err
	}
	return withOut(*out, stdout, func(w io.Writer) error { return predict(w, sp, *id, *seedv) })
}

// predict folds one protein of sp's proteome at seed: five models, the
// best by pTMS materialized with coordinates and relaxed, written to w as
// PDB.
func predict(w io.Writer, sp proteome.Species, id string, seed uint64) error {
	env := experiments.NewEnv(seed)
	p := env.Proteome(sp)
	i := slices.IndexFunc(p.Proteins, func(pr proteome.Protein) bool { return pr.Seq.ID == id })
	if i < 0 {
		return fmt.Errorf("no protein %q in %s", id, sp.Code)
	}
	target := &p.Proteins[i]

	feats, err := env.FeatureGen().Features(*target)
	if err != nil {
		return err
	}
	// Five models, keep the best by pTMS, then materialize and relax it.
	best, bestModel := -1.0, 0
	for m := 0; m < fold.NumModels; m++ {
		pred, err := env.Engine.Infer(fold.Task{
			ID: target.Seq.ID, Length: target.Seq.Len(), Features: feats,
			Model: m, Preset: fold.Genome, NodeMemGB: 64,
		})
		if err != nil {
			return err
		}
		if pred.PTMS > best {
			best, bestModel = pred.PTMS, m
		}
	}
	pred, err := env.Engine.Infer(fold.Task{
		ID: target.Seq.ID, Length: target.Seq.Len(), Features: feats,
		Model: bestModel, Preset: fold.Genome, NodeMemGB: 64, WantCoords: true,
	})
	if err != nil {
		return err
	}
	before := relax.CountViolations(pred.CA)
	rr, err := relax.Relax(pred.CA, pred.SC, relax.DefaultOptions(relax.PlatformGPU))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: model %d, pLDDT %.1f, pTMS %.3f, %d recycles; violations %d->%d bumps\n",
		id, bestModel+1, pred.MeanPLDDT, pred.PTMS, pred.Recycles, before.Bumps, rr.After.Bumps)

	model, err := pdb.FromTrace(target.Seq.ID, target.Seq.Residues, rr.CA, rr.SC, pred.PLDDT)
	if err != nil {
		return err
	}
	return pdb.Write(w, model)
}
