package fold

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestInferDrawTableBitwise: whatever the table holds, and whoever filled
// it, a prediction is bit-identical to the same call on a fresh engine —
// sharing draws between the models of a target must never leak them
// between targets, lengths, seeds or modes.
func TestInferDrawTableBitwise(t *testing.T) {
	const seed = 1234
	prov := &SeededProvider{Seed: 99}
	// fresh answers task on a new engine with e's seed and calibration.
	fresh := func(t *testing.T, e *Engine, task Task) Prediction {
		t.Helper()
		f := NewEngine(prov, e.Seed)
		f.Cal = e.Cal
		p, err := f.Infer(task)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	same := func(t *testing.T, e *Engine, task Task) {
		t.Helper()
		got, err := e.Infer(task)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(t, e, task); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s len %d model %d %s coords=%v, seed %d: shared engine gave\n%+v\nfresh engine gave\n%+v",
				task.ID, task.Length, task.Model, task.Preset.Name, task.WantCoords, e.Seed, got, want)
		}
	}
	task := func(id string, length, model int, p Preset) Task {
		return Task{ID: id, Length: length, Features: testFeatures(length, 12, model%2), Model: model, Preset: p, NodeMemGB: 1024}
	}

	t.Run("concurrent-shuffled", func(t *testing.T) {
		var tasks []Task
		for i := 0; i < 300; i++ {
			length := 1 + i*2499/299 // 1 ... 2500, both sides of summaryResidues
			for m := 0; m < NumModels; m++ {
				for _, p := range AllPresets() {
					tasks = append(tasks, task(fmt.Sprintf("T%03d", i), length, m, p))
				}
			}
		}
		order := rng.New(7).Perm(len(tasks))
		e := NewEngine(prov, seed)
		got := make([]Prediction, len(tasks))
		const workers = 8
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(order); k += workers {
					i := order[k]
					p, err := e.Infer(tasks[i])
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = p
				}
			}(w)
		}
		wg.Wait()
		for i, tk := range tasks {
			if want := fresh(t, e, tk); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s len %d model %d %s: shared engine gave\n%+v\nfresh engine gave\n%+v",
					tk.ID, tk.Length, tk.Model, tk.Preset.Name, got[i], want)
			}
		}
	})

	t.Run("two-ids-one-slot", func(t *testing.T) {
		const length = 300
		other := ""
		for i := 0; other == ""; i++ {
			if id := fmt.Sprintf("C%d", i); drawSlot(id, length) == drawSlot("A", length) {
				other = id
			}
		}
		e := NewEngine(prov, seed)
		for round := 0; round < 3; round++ {
			for _, id := range []string{"A", other} {
				for m := 0; m < NumModels; m++ {
					same(t, e, task(id, length, m, Genome))
				}
			}
		}
		if d := e.draws[drawSlot("A", length)].Load(); d == nil || d.id != other {
			t.Fatalf("slot holds %+v, want the last target's record", d)
		}
	})

	t.Run("one-id-two-lengths", func(t *testing.T) {
		const short = 120 // below summaryResidues; the other is above it
		long := 0
		for l := 257; long == 0; l++ {
			if drawSlot("L", l) == drawSlot("L", short) {
				long = l
			}
		}
		e := NewEngine(prov, seed)
		for round := 0; round < 3; round++ {
			for _, length := range []int{short, long} {
				for m := 0; m < NumModels; m++ {
					same(t, e, task("L", length, m, Super))
				}
			}
		}
	})

	t.Run("seed-changed-between-calls", func(t *testing.T) {
		e := NewEngine(prov, seed)
		for _, s := range []uint64{seed, seed + 1, seed, 0} {
			e.Seed = s
			for m := 0; m < NumModels; m++ {
				same(t, e, task("S", 400, m, ReducedDBs))
			}
		}
	})

	t.Run("shape-changed-between-calls", func(t *testing.T) {
		e := NewEngine(prov, seed)
		for _, y := range []float64{e.Cal.PLDDTShape, 2.2, e.Cal.PLDDTShape, 0.7} {
			e.Cal.PLDDTShape = y
			for m := 0; m < NumModels; m++ {
				same(t, e, task("Y", 400, m, ReducedDBs))
			}
		}
	})

	t.Run("coords-beside-cached-summary", func(t *testing.T) {
		e := NewEngine(prov, seed)
		for _, length := range []int{90, 300} {
			id := fmt.Sprintf("W%d", length)
			// A coordinate call beside a cached summary record...
			same(t, e, task(id, length, 0, Genome))
			coords := task(id, length, 1, Genome)
			coords.WantCoords = true
			same(t, e, coords)
			// ...and one before any summary call, which must leave the
			// table as it found it.
			coords.ID += "x"
			same(t, e, coords)
			if d := e.draws[drawSlot(coords.ID, length)].Load(); d != nil && d.id == coords.ID {
				t.Fatalf("coordinate call for %s published a draw record", coords.ID)
			}
			same(t, e, task(coords.ID, length, 2, Genome))
			same(t, e, coords)
		}
	})
}
