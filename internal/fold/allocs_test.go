package fold_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fold"
	"repro/internal/msa"
)

// TestInferAllocs pins what a summary-mode inference task allocates, the
// unit the campaign runs 178,170 times: nothing once the engine's pool
// holds a draw record, whether the call finds its target's record there or
// refills another target's, and nothing more through core.InferDigest, the
// stage's task body.
func TestInferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random quarter of Puts, so a call may allocate a record")
	}
	e := fold.NewEngine(nil, 20220125)
	feat := &msa.Features{Neff: 12, Depth: 13, Templates: []msa.TemplateHit{{ID: "t", Identity: 0.5, Coverage: 0.8}}}
	task := fold.Task{ID: "DVU_00001", Length: 300, Features: feat, Preset: fold.Genome, NodeMemGB: 16}
	if _, err := e.Infer(task); err != nil { // pools the target's record
		t.Fatal(err)
	}
	nextModel := func() { task.Model = (task.Model + 1) % fold.NumModels }

	if n := testing.AllocsPerRun(100, func() {
		nextModel()
		if _, err := e.Infer(task); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Infer with its target's draw record pooled: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		nextModel()
		if d, err := core.InferDigest(e, task); err != nil || d.OOM {
			t.Fatal(d, err)
		}
	}); n != 0 {
		t.Errorf("core.InferDigest with its target's draw record pooled: %v allocs per call, want 0", n)
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
	}); n != 0 {
		t.Errorf("Infer refilling another target's draw record: %v allocs per call, want 0", n)
	}
}
