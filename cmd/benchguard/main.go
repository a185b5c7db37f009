// Command benchguard is the CI bench-regression gate: it parses `go test
// -bench -benchmem` output from stdin and compares every benchmark that
// has an entry in BENCH_BASELINE.json against the baseline's "current"
// values.
//
// The perf contract it enforces is asymmetric, matching what is stable on
// shared CI runners:
//
//   - allocs/op is gated exactly — allocation counts are deterministic, so
//     any drift is a real change and must be reflected in the baseline.
//     Concurrency benchmarks (the dispatch-throughput rows) are the one
//     exception: goroutine scheduling shifts buffer growth and flush
//     counts by a percent or two, so their baseline entries carry an
//     explicit "allocs_tolerance" band and are gated within it, in both
//     directions;
//   - ns/op is gated with a generous multiplicative tolerance (CI machines
//     are noisy and heterogeneous; the gate only catches order-of-magnitude
//     regressions);
//   - B/op is gated with a small tolerance plus slack (byte counts wobble
//     by a few bytes per op from pooled-buffer accounting).
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... | benchguard \
//	    -baseline BENCH_BASELINE.json -require BenchmarkLocalAlign,...
//
// -require lists benchmarks that must appear in the input, so a renamed
// benchmark cannot silently drop out of the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baselineFile mirrors the layout of BENCH_BASELINE.json.
type baselineFile struct {
	Machine    string                      `json:"machine"`
	Benchmarks map[string]baselineVariants `json:"benchmarks"`
}

type baselineVariants struct {
	Seed    *baselineEntry `json:"seed"`
	Current *baselineEntry `json:"current"`
}

type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// AllocsTolerance, when non-zero, relaxes the exact allocs/op gate to
	// a symmetric fractional band (0.10 = ±10%) for benchmarks whose
	// allocation counts are scheduling-dependent. Drift past the band in
	// either direction still fails, so real changes reach the baseline.
	AllocsTolerance float64 `json:"allocs_tolerance,omitempty"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	name   string
	nsOp   float64
	bOp    float64
	allocs int64
	hasMem bool
}

// benchLine matches the name and ns/op columns of e.g.
//
//	BenchmarkLocalAlign-4   2577   464921 ns/op   784 B/op   3 allocs/op
//
// The memory columns are extracted separately, because custom
// b.ReportMetric columns (the dispatch benchmark's tasks/s) sit between
// ns/op and B/op in go test output.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	bytesCol  = regexp.MustCompile(`\s([0-9.]+) B/op`)
	allocsCol = regexp.MustCompile(`\s(\d+) allocs/op`)
)

func parseBench(line string) (measurement, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return measurement{}, false
	}
	ns, err := strconv.ParseFloat(m[2], 64)
	if err != nil {
		return measurement{}, false
	}
	out := measurement{name: m[1], nsOp: ns}
	bc := bytesCol.FindStringSubmatch(line)
	ac := allocsCol.FindStringSubmatch(line)
	if bc != nil && ac != nil {
		out.bOp, _ = strconv.ParseFloat(bc[1], 64)
		allocs, err := strconv.ParseInt(ac[1], 10, 64)
		if err != nil {
			return measurement{}, false
		}
		out.allocs = allocs
		out.hasMem = true
	}
	return out, true
}

// check compares one measurement against its baseline and returns the
// failures (empty when the gate passes).
func check(m measurement, base baselineEntry, nsTol, bytesTol float64, bytesSlack float64) []string {
	var fails []string
	if limit := base.NsPerOp * nsTol; base.NsPerOp > 0 && m.nsOp > limit {
		fails = append(fails, fmt.Sprintf(
			"%s: %.0f ns/op exceeds %.0fx baseline %.0f ns/op",
			m.name, m.nsOp, nsTol, base.NsPerOp))
	}
	if !m.hasMem {
		fails = append(fails, fmt.Sprintf(
			"%s: no memory stats in input; run the benchmarks with -benchmem", m.name))
		return fails
	}
	if tol := base.AllocsTolerance; tol > 0 {
		lo := float64(base.AllocsPerOp) * (1 - tol)
		hi := float64(base.AllocsPerOp) * (1 + tol)
		if got := float64(m.allocs); got < lo || got > hi {
			kind := "regressed"
			if got < lo {
				kind = "improved"
			}
			fails = append(fails, fmt.Sprintf(
				"%s: allocs/op %s: %d outside baseline %d ±%.0f%% (update BENCH_BASELINE.json if this change is intentional)",
				m.name, kind, m.allocs, base.AllocsPerOp, tol*100))
		}
	} else if m.allocs != base.AllocsPerOp {
		kind := "regressed"
		if m.allocs < base.AllocsPerOp {
			kind = "improved"
		}
		fails = append(fails, fmt.Sprintf(
			"%s: allocs/op %s: %d != baseline %d (allocs are gated exactly; update BENCH_BASELINE.json if this change is intentional)",
			m.name, kind, m.allocs, base.AllocsPerOp))
	}
	if limit := base.BytesPerOp*bytesTol + bytesSlack; m.bOp > limit {
		fails = append(fails, fmt.Sprintf(
			"%s: %.0f B/op exceeds baseline %.0f B/op (limit %.0f)",
			m.name, m.bOp, base.BytesPerOp, limit))
	}
	return fails
}

func run(baselinePath, require string, nsTol, bytesTol, bytesSlack float64, input *bufio.Scanner, out *strings.Builder) (ok bool) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(out, "benchguard: %v\n", err)
		return false
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(out, "benchguard: parsing %s: %v\n", baselinePath, err)
		return false
	}

	seen := map[string]bool{}
	var failures []string
	compared := 0
	for input.Scan() {
		m, isBench := parseBench(input.Text())
		if !isBench {
			continue
		}
		seen[m.name] = true
		variants, inBaseline := base.Benchmarks[m.name]
		if !inBaseline || variants.Current == nil {
			fmt.Fprintf(out, "benchguard: %-28s (no baseline entry; skipped)\n", m.name)
			continue
		}
		compared++
		fails := check(m, *variants.Current, nsTol, bytesTol, bytesSlack)
		if len(fails) == 0 {
			fmt.Fprintf(out, "benchguard: %-28s ok (%.0f ns/op, %d allocs/op)\n",
				m.name, m.nsOp, m.allocs)
		}
		failures = append(failures, fails...)
	}
	if require != "" {
		for _, name := range strings.Split(require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && !seen[name] {
				failures = append(failures, fmt.Sprintf(
					"%s: required benchmark missing from input", name))
			}
		}
	}
	if compared == 0 {
		failures = append(failures, "no benchmarks compared; wrong input?")
	}
	for _, f := range failures {
		fmt.Fprintf(out, "benchguard: FAIL %s\n", f)
	}
	return len(failures) == 0
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline JSON path")
	require := flag.String("require", "", "comma-separated benchmark names that must appear in the input")
	nsTol := flag.Float64("ns-tolerance", 8.0, "ns/op failure threshold as a multiple of the baseline")
	bytesTol := flag.Float64("bytes-tolerance", 1.25, "B/op failure threshold as a multiple of the baseline")
	bytesSlack := flag.Float64("bytes-slack", 64, "additive B/op slack on top of the tolerance")
	flag.Parse()

	var report strings.Builder
	ok := run(*baselinePath, *require, *nsTol, *bytesTol, *bytesSlack,
		bufio.NewScanner(os.Stdin), &report)
	fmt.Print(report.String())
	if !ok {
		os.Exit(1)
	}
}
