package fold_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fold"
	"repro/internal/msa"
)

// TestInferAllocs pins what a summary-mode inference task allocates, the
// unit the campaign runs 178,170 times: nothing when the target's draw
// record is already in the engine's table, exactly the record on a miss,
// and nothing more through core.InferDigest, the stage's task body.
func TestInferAllocs(t *testing.T) {
	e := fold.NewEngine(nil, 20220125)
	feat := &msa.Features{Neff: 12, Depth: 13, Templates: []msa.TemplateHit{{ID: "t", Identity: 0.5, Coverage: 0.8}}}
	task := fold.Task{ID: "DVU_00001", Length: 300, Features: feat, Preset: fold.Genome, NodeMemGB: 16}
	if _, err := e.Infer(task); err != nil { // publishes the target's record
		t.Fatal(err)
	}
	nextModel := func() { task.Model = (task.Model + 1) % fold.NumModels }

	if n := testing.AllocsPerRun(100, func() {
		nextModel()
		if _, err := e.Infer(task); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Infer with the draw record in the table: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		nextModel()
		if d, err := core.InferDigest(e, task); err != nil || d.OOM {
			t.Fatal(d, err)
		}
	}); n != 0 {
		t.Errorf("core.InferDigest with the draw record in the table: %v allocs per call, want 0", n)
	}

	// AllocsPerRun makes one warm-up call besides the counted ones, and
	// every call meets a target the engine has never seen.
	const runs = 100
	misses := make([]fold.Task, runs+1)
	for i := range misses {
		misses[i] = task
		misses[i].ID = fmt.Sprintf("MISS_%05d", i)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := e.Infer(misses[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 1 {
		t.Errorf("Infer on a draw-table miss: %v allocs per call, want 1 (the record)", n)
	}
}
