package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
)

// TestTable1ParallelMatchesSerial is the contract the parallel execution
// layer rests on: a run fanned out over the worker pool must report
// byte-identical results to the serial reference path. Table 1 exercises
// the full feature-generation + inference pipeline over all four presets,
// so agreement here covers the memoized feature generator, the inference
// fan-out, and the dataflow accounting. A traced pool must agree too:
// the trace is an observation channel, never an input.
func TestTable1ParallelMatchesSerial(t *testing.T) {
	serialEnv := NewEnv(DefaultSeed)
	serialEnv.Parallelism = 1
	serial, err := Table1(serialEnv)
	if err != nil {
		t.Fatal(err)
	}

	parEnv := NewEnv(DefaultSeed)
	parEnv.Parallelism = 8
	par, err := Table1(parEnv)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row count: serial %d vs parallel %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i] != par.Rows[i] {
			t.Errorf("preset %s: serial %+v != parallel %+v",
				serial.Rows[i].Preset, serial.Rows[i], par.Rows[i])
		}
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("Table1 results differ between parallelism 1 and 8")
	}

	tracedEnv := NewEnv(DefaultSeed)
	pool := exec.NewPool(8)
	trace := &exec.Trace{}
	pool.SetTrace(trace)
	tracedEnv.Executor = pool
	traced, err := Table1(tracedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Rows()) == 0 {
		t.Error("traced pool recorded no task stats")
	}
	if !reflect.DeepEqual(serial, traced) {
		t.Error("Table1 under a traced pool-8 differs from the serial reference")
	}
}

// TestFeaturesForParallelMatchesSerial pins the feature stage alone:
// identical maps at any parallelism, and the Env-level memo must hand back
// the same canonical feature pointers on a second pass.
func TestFeaturesForParallelMatchesSerial(t *testing.T) {
	serialEnv := NewEnv(DefaultSeed)
	serialEnv.Parallelism = 1
	bench := serialEnv.Benchmark559()
	serial, err := serialEnv.FeaturesFor(bench)
	if err != nil {
		t.Fatal(err)
	}

	parEnv := NewEnv(DefaultSeed)
	parEnv.Parallelism = 8
	par, err := parEnv.FeaturesFor(parEnv.Benchmark559())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("feature count: serial %d vs parallel %d", len(serial), len(par))
	}
	for id, sf := range serial {
		pf, ok := par[id]
		if !ok {
			t.Fatalf("parallel run missing features for %s", id)
		}
		if !reflect.DeepEqual(sf, pf) {
			t.Errorf("features for %s differ between serial and parallel runs", id)
		}
	}

	// Memoization: a second request must return the cached pointers.
	again, err := parEnv.FeaturesFor(parEnv.Benchmark559())
	if err != nil {
		t.Fatal(err)
	}
	for id := range par {
		if par[id] != again[id] {
			t.Errorf("feature memo returned a different pointer for %s", id)
		}
	}
}

// TestCampaignParallelMatchesSerial runs one full species campaign (S.
// divinum, the largest proteome) at both parallelism settings and compares
// the inference fan-out, high-memory retry wave, and relax accounting. It
// then runs the four-species Campaign at both settings: at 8 the species
// overlap on one shared pool, and the rendered report and both node-hour
// totals must still match the serial loop's bit for bit.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline equivalence is not a -short test")
	}
	run := func(workers int) (*SDivinumResult, error) {
		env := NewEnv(DefaultSeed)
		env.Parallelism = workers
		return SDivinum(env)
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("SDivinum results differ:\nserial   %+v\nparallel %+v", serial, par)
	}

	campaign := func(workers int) (string, *CampaignResult) {
		env := NewEnv(DefaultSeed)
		env.Parallelism = workers
		res, err := Campaign(env)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := res.Render(&out); err != nil {
			t.Fatal(err)
		}
		return out.String(), res
	}
	serialOut, serialRes := campaign(1)
	parOut, parRes := campaign(8)
	if serialOut != parOut {
		t.Errorf("Campaign report at parallelism 8:\n%s\nserial:\n%s", parOut, serialOut)
	}
	for _, total := range []struct {
		name        string
		serial, par float64
	}{
		{"Summit", serialRes.SummitNodeHours, parRes.SummitNodeHours},
		{"Andes", serialRes.AndesNodeHours, parRes.AndesNodeHours},
	} {
		if math.Float64bits(total.serial) != math.Float64bits(total.par) {
			t.Errorf("%s node-hours at parallelism 8 = %v, serial %v", total.name, total.par, total.serial)
		}
	}
}
