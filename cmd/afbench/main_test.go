package main

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
)

func TestRunnerNames(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range runners {
		if r.name == "all" {
			t.Errorf("runner named %q shadows the run-everything argument", r.name)
		}
		if seen[r.name] {
			t.Errorf("two runners named %q", r.name)
		}
		seen[r.name] = true
	}
}

// TestRunnerRendersItsExperiment: a table entry prints exactly what
// calling its experiment and rendering the result prints.
func TestRunnerRendersItsExperiment(t *testing.T) {
	var viaTable, direct bytes.Buffer
	for _, r := range runners {
		if r.name == "gpusearch" {
			if err := r.run(experiments.NewEnv(experiments.DefaultSeed), &viaTable); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := experiments.GPUSearch(experiments.NewEnv(experiments.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Render(&direct); err != nil {
		t.Fatal(err)
	}
	if direct.Len() == 0 || !bytes.Equal(viaTable.Bytes(), direct.Bytes()) {
		t.Errorf("gpusearch via the runner table printed\n%s\nwant\n%s", viaTable.String(), direct.String())
	}
}
