// Command bench is the repository's benchmark: five workloads — two
// in-process, three over real processes and sockets — measured end to end
// and, on a traced run, layer by layer, from outside the program.
//
//	go run -C bench .                          all five workloads, untraced
//	go run -C bench . -trace 1                 the traced run: every per-layer metric, span files
//	go run -C bench . -aa                      two untraced sets compared against the bounds
//	go run -C bench . -workload pingpong -seed 7 -seconds 15 -trace 0
//
// The last form is what BENCHMARK.json's driver calls; its last line of
// standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(realMain())
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	aa       bool
	runs     int
	smoke    bool
	out      string
	compare  string
	verbose  bool
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five) and print the driver's result line")
	flag.Uint64Var(&o.seed, "seed", experiments.DefaultSeed, "seed every input is made from")
	flag.Float64Var(&o.seconds, "seconds", 20, "time budget of one untraced run of one workload; whole repetitions are run until it is spent")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: one repetition with the instruments on, per-layer metrics, a span file")
	flag.BoolVar(&o.aa, "aa", false, "A/A check: run the untraced set twice and compare the two against the bounds")
	flag.IntVar(&o.runs, "runs", 1, "with -aa: runs per workload in each set, seeds seed..seed+runs-1 (10 reproduces the driver's acceptance check)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, flow workloads only: a plumbing check, not a measurement")
	flag.StringVar(&o.out, "out", "", "write the result set, with its machine stamp, to this JSON file")
	flag.StringVar(&o.compare, "compare", "", "compare this run against a result set written by -out; refused across different machine stamps")
	flag.BoolVar(&o.verbose, "v", false, "print every repetition as it ends")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 || o.runs < 1 {
		flag.Usage()
		return 2
	}

	names := allWorkloads
	if o.smoke {
		names = flowWorkloads
	}
	if o.workload != "" {
		if workloadByName(o.workload) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(allWorkloads, ", "))
			return 2
		}
		names = []string{o.workload}
	}

	// The module lives in <checkout>/bench and is run from there
	// (`go run -C bench .`); everything it writes goes under the
	// checkout's .bench_build directory.
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root := filepath.Dir(cwd)
	if _, err := os.Stat(filepath.Join(root, "cmd", "proteomectl")); err != nil {
		fmt.Fprintf(os.Stderr, "bench: run from the bench directory of a checkout (go run -C bench .): %v\n", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// One goroutine at a time removes the scratch directory: the normal
	// exit below, or the signal handler — which keeps the lock through
	// os.Exit, so a main goroutine unwinding meanwhile cannot race it.
	var cleanupMu sync.Mutex
	cleanup := func() {
		if os.RemoveAll(work) != nil {
			_ = os.RemoveAll(work) // an entry appeared mid-removal
		}
	}
	defer func() {
		cleanupMu.Lock()
		defer cleanupMu.Unlock()
		cleanup()
	}()

	// An interrupt — or a closed stdout, which would otherwise kill the
	// process outright and orphan its children — kills every child's
	// process group and removes the scratch directory before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		<-sig
		cleanupMu.Lock()
		killAllChildren()
		cleanup()
		os.Exit(130)
	}()

	rc := &runCtx{seed: o.seed, nproc: runtime.NumCPU(), root: root, work: work, smoke: o.smoke, verbose: o.verbose, repDeadline: 90 * time.Second}
	if o.smoke {
		// One repetition per workload, and a wedged cluster fails fast.
		rc.repDeadline, o.seconds = 30*time.Second, 0.001
	}
	// go build leaves an up-to-date binary alone, so one checkout links
	// proteomectl once however many runs it hosts.
	if rc.bin, err = buildProteomectl(root, build); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rc.stamp = readStamp(root)

	if o.aa {
		o.trace = 0
		return aaCheck(rc, names, o)
	}

	set := &resultSet{Stamp: rc.stamp, Seconds: o.seconds, Traced: o.trace == 1}
	ok := true
	for _, name := range names {
		res, err := runWorkload(rc, name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printResult(res, o.trace == 1)
		set.Runs = append(set.Runs, res)
		ok = ok && res.correct()
	}
	if o.out != "" {
		if err := set.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if o.compare != "" {
		base, err := readResultSet(o.compare)
		if err == nil {
			err = compareSets(os.Stdout, base, set)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if o.workload != "" {
		fmt.Println(string(driverLine(set.Runs[0], o.trace == 1)))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED checks (see errors above)")
		return 1
	}
	return 0
}

// runWorkload prepares one workload and runs it, traced or not.
func runWorkload(rc *runCtx, name string, o options) (*runResult, error) {
	w := workloadByName(name)
	if err := w.prepare(rc); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if o.trace == 0 {
		return runUntraced(rc, w, o.seconds), nil
	}
	tr := newTracer()
	res := runTraced(rc, w, tr)
	path := filepath.Join(filepath.Dir(rc.work), "spans-"+name+".json")
	if err := tr.write(path, rc.stamp); err != nil {
		return nil, err
	}
	fmt.Printf("%-14s %d spans written to %s\n", name, len(tr.spans), path)
	return res, nil
}

// printResult prints every metric by name, with its unit.
func printResult(res *runResult, traced bool) {
	line := func(d metricDef, v float64, note string) {
		fmt.Printf("%-14s %-38s %14.6g %-6s %s\n", res.Workload, d.Name, v, d.Unit, note)
	}
	if !traced {
		note := fmt.Sprintf("best %d of %d repetitions", min(2, res.Reps), res.Reps)
		for _, d := range endToEnd {
			n := note
			if strings.HasPrefix(d.Name, "wait_ms") {
				n = fmt.Sprintf("%s, %d answers timed", note, res.Samples)
			}
			line(d, res.EndToEnd[d.Name], n)
		}
		fmt.Printf("%-14s %-38s %14.6g %-6s %d failed of %d attempted\n", res.Workload, "fail_ratio",
			float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	}
	// Only the rows this workload measures (group A alone on an untraced run).
	for _, d := range perLayer {
		if v, ok := res.Layer[d.Name]; ok && slices.Contains(d.On, res.Workload) {
			line(d, v, "")
		}
	}
	for _, e := range res.Errors {
		fmt.Printf("%-14s ERROR %s\n", res.Workload, e)
	}
}

// driverLine is the one JSON object BENCHMARK.json's driver reads from the
// last line of standard output: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func driverLine(res *runResult, traced bool) []byte {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.EndToEnd
	if traced {
		defs, vals = perLayer, res.Layer
	}
	ms := map[string]metric{}
	for _, d := range defs {
		ms[d.Name] = metric{vals[d.Name], d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), max(res.Attempted, 1), res.Failed, ms})
	return line
}
