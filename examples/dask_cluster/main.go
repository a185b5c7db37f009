// Dask cluster: run the real distributed dataflow engine — a scheduler, six
// workers (one per simulated GPU, as on one Summit node), and a driving
// client — over actual TCP on localhost, exactly the deployment shape of
// Section 3.3:
//
//  1. the scheduler starts and writes a JSON scheduler file;
//  2. workers read the file and register;
//  3. the client submits the whole batch with one Map call, sorted
//     longest-first, and streams per-task statistics to a CSV.
//
// Run with: go run ./examples/dask_cluster
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exec"
	"repro/internal/flow"
)

// inferencePayload is the toy task body: a target name and a length that
// determines how long the worker "computes".
type inferencePayload struct {
	Target string `json:"target"`
	Length int    `json:"length"`
}

func main() {
	dir, err := os.MkdirTemp("", "daskcluster")
	if err != nil {
		log.Fatal(err)
	}
	schedFile := filepath.Join(dir, "scheduler.json")
	statsFile := filepath.Join(dir, "task_stats.csv")

	// 1. Scheduler.
	sched := flow.NewScheduler()
	addr, err := sched.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer sched.Close()
	if err := sched.WriteSchedulerFile(schedFile); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler at %s (scheduler file: %s)\n", addr, schedFile)

	// 2. One worker per GPU.
	handler := func(task flow.Task) (json.RawMessage, error) {
		var p inferencePayload
		if err := json.Unmarshal(task.Payload, &p); err != nil {
			return nil, err
		}
		time.Sleep(time.Duration(p.Length) * 20 * time.Microsecond) // "inference"
		return json.Marshal(map[string]any{"target": p.Target, "plddt": 70 + p.Length%25})
	}
	for i := 0; i < 6; i++ {
		w := flow.NewWorker(fmt.Sprintf("gpu%d", i), handler)
		if err := w.Dial(flow.DialOptions{SchedulerFile: schedFile}); err != nil {
			log.Fatal(err)
		}
		defer w.Close()
	}
	fmt.Println("6 workers registered (one per GPU)")

	// 3. Client: batch of (target, model) tasks, longest-first.
	client, err := flow.DialClient(flow.DialOptions{SchedulerFile: schedFile})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	var tasks []flow.Task
	for t := 0; t < 24; t++ {
		length := 80 + (t*137)%800
		for m := 0; m < 5; m++ {
			payload, _ := json.Marshal(inferencePayload{Target: fmt.Sprintf("P%03d", t), Length: length})
			tasks = append(tasks, flow.Task{
				ID:      fmt.Sprintf("P%03d/m%d", t, m),
				Weight:  float64(length),
				Payload: payload,
			})
		}
	}
	flow.SortByWeightDescending(tasks)

	stats, err := os.Create(statsFile)
	if err != nil {
		log.Fatal(err)
	}
	defer stats.Close()

	// Per-task telemetry streams through the result observer into the
	// processing-times CSV (the exec.Trace sink proteomectl uses).
	trace := &exec.Trace{}
	start := time.Now()
	results, err := client.Map(tasks, func(r *flow.Result) {
		trace.Record(exec.TaskStats{
			TaskID:       r.TaskID,
			Kernel:       "example/inference",
			WorkerID:     r.WorkerID,
			Enqueue:      r.EnqueuedAt(),
			Start:        r.Start,
			Finish:       r.End,
			PayloadBytes: len(r.Payload),
			Err:          r.Err,
		})
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := trace.WriteCSV(stats); err != nil {
		log.Fatal(err)
	}

	perWorker := map[string]int{}
	failed := 0
	for _, r := range results {
		perWorker[r.WorkerID]++
		if r.Failed() {
			failed++
		}
	}
	fmt.Printf("completed %d tasks in %v (%d failed)\n", len(results), elapsed.Round(time.Millisecond), failed)
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("gpu%d", i)
		fmt.Printf("  %s processed %d tasks\n", id, perWorker[id])
	}
	fmt.Printf("per-task stats written to %s\n", statsFile)
}
