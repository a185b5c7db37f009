package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machineStamp says where a result was measured. Numbers from different
// stamps are not comparable, and compareSets refuses to compare them.
type machineStamp struct {
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func readStamp(root string) machineStamp {
	s := machineStamp{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				s.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	return s
}

// sameMachine ignores the commit: comparing commits is the point.
func (s machineStamp) sameMachine(o machineStamp) bool {
	return s.NProc == o.NProc && s.CPU == o.CPU && s.Go == o.Go
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Stamp   machineStamp `json:"stamp"`
	Seconds float64      `json:"seconds"`
	Traced  bool         `json:"traced"`
	Runs    []*runResult `json:"runs"`
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// byWorkload groups a set's end-to-end values: workload → metric → one
// value per run.
func (s *resultSet) byWorkload() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range s.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.EndToEnd {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out
}

// comparison is one metric of one workload, base set against current.
type comparison struct {
	workload, metric string
	base, cur        float64
	worse            float64 // share of base by which cur is worse
	spread           float64 // quartile spread of the base set's runs (0 under 4 runs)
	bound            float64
	ok               bool
}

// compareMedians holds every end-to-end metric of every workload the two
// sets share against its bound: the current median may not be worse than
// the base median by more than the bound, and — given enough runs to have
// quartiles — the base set's own spread must stay within it too
// (setup_s excepted, as in the driver's acceptance check).
func compareMedians(base, cur *resultSet) []comparison {
	b, c := base.byWorkload(), cur.byWorkload()
	var out []comparison
	for _, wl := range allWorkloads {
		for _, d := range endToEnd {
			bv, cv := b[wl][d.Name], c[wl][d.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			cmp := comparison{workload: wl, metric: d.Name, base: median(bv), cur: median(cv), bound: d.Bound}
			cmp.worse = worsening(d.Better, cmp.base, cmp.cur)
			if len(bv) >= 4 {
				cmp.spread = quartileSpread(bv)
			}
			cmp.ok = cmp.worse <= d.Bound && (d.Name == "setup_s" || cmp.spread <= d.Bound)
			out = append(out, cmp)
		}
	}
	return out
}

// compareSets prints the comparison and fails if any metric is out of
// bound. Sets measured on different machines are refused outright.
func compareSets(w io.Writer, base, cur *resultSet) error {
	if !base.Stamp.sameMachine(cur.Stamp) {
		return fmt.Errorf("refusing to compare results from different machines: %+v vs %+v", base.Stamp, cur.Stamp)
	}
	if base.Traced || cur.Traced {
		return fmt.Errorf("refusing to compare traced runs: end-to-end metrics come from untraced runs")
	}
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %9s %9s %7s\n", "workload", "metric", "base", "current", "worse", "spread", "bound")
	bad := 0
	for _, c := range compareMedians(base, cur) {
		verdict := "ok"
		if !c.ok {
			verdict = "OUT OF BOUND"
			bad++
		}
		fmt.Fprintf(w, "%-14s %-12s %14.6g %14.6g %+8.1f%% %8.1f%% %6.0f%% %s\n",
			c.workload, c.metric, c.base, c.cur, 100*c.worse, 100*c.spread, 100*c.bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics out of bound", bad)
	}
	return nil
}

// aaCheck runs the untraced set twice on the same code and holds the
// second against the first: the benchmark's own noise must fit inside the
// bounds it imposes on later changes.
func aaCheck(rc *runCtx, names []string, o options) int {
	fmt.Printf("A/A check on %+v: 2 sets x %d runs x %d workloads, %.0f s each\n", rc.stamp, o.runs, len(names), o.seconds)
	var sets [2]*resultSet
	ok := true
	for i := range sets {
		sets[i] = &resultSet{Stamp: rc.stamp, Seconds: o.seconds}
		for _, name := range names {
			for run := 0; run < o.runs; run++ {
				rc.seed = o.seed + uint64(run)
				res, err := runWorkload(rc, name, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					return 1
				}
				fmt.Printf("set %d %-14s seed %d: wall_s %.4f, %d reps, %d failed of %d\n",
					i+1, name, rc.seed, res.EndToEnd["wall_s"], res.Reps, res.Failed, res.Attempted)
				for _, e := range res.Errors {
					fmt.Printf("set %d %-14s ERROR %s\n", i+1, name, e)
				}
				sets[i].Runs = append(sets[i].Runs, res)
				ok = ok && res.correct()
			}
		}
	}
	if o.out != "" {
		if err := sets[1].write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := compareSets(os.Stdout, sets[0], sets[1]); err != nil {
		fmt.Fprintln(os.Stderr, "bench: A/A check failed:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: A/A runs had failed checks")
		return 1
	}
	fmt.Println("A/A check passed: every end-to-end metric within its bound")
	return 0
}
