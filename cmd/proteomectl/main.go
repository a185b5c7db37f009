// Command proteomectl drives the pipeline interactively: generate synthetic
// proteomes, run the three workflow stages against the cluster simulator,
// predict and export individual structures, print campaign reports — and
// deploy the flow dataflow engine across real processes and hosts, with a
// standalone scheduler, remote workers, and a submitting client, mirroring
// the paper's Summit deployment (Section 3.3).
//
// Usage:
//
//	proteomectl generate -species DVU -out proteome.fasta
//	proteomectl run -species DVU -preset genome -nodes 32
//	proteomectl predict -species DVU -id DVU_00001 -out model.pdb
//	proteomectl species
//
// Multi-process deployment (one command per terminal or host):
//
//	proteomectl sched -listen :8786 -scheduler-file sched.json -event-log events.jsonl
//	proteomectl worker -scheduler-file sched.json
//	proteomectl submit -scheduler-file sched.json -species DVU
//	proteomectl monitor -scheduler-file sched.json
//
// The monitor is read-only: it tails the scheduler's structured event
// stream (queue depth, per-worker in-flight, throughput) without any
// cooperation from the submitting client.
//
// `proteomectl <command> -h` lists a command's flags and their defaults.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/flow"
	"repro/internal/proteome"
)

// command is one subcommand: its name, the one line usage prints for it,
// and its body. Its flags are documented once, by its own FlagSet.
type command struct {
	name, synopsis string
	run            func(args []string, stdout io.Writer) error
}

var commands = []command{
	{"species", "list the paper's four species", speciesCmd},
	{"generate", "write a synthetic proteome as FASTA", generateCmd},
	{"run", "run the three-stage pipeline on the simulator", runCmd},
	{"predict", "predict + relax one protein, write PDB", predictCmd},
	{"sched", "start a standalone dataflow scheduler", schedCmd},
	{"worker", "start a worker serving the campaign kernels", workerCmd},
	{"submit", "run the campaign on the remote cluster", submitCmd},
	{"monitor", "tail a running campaign from the scheduler's event stream; read-only", monitorCmd},
	{"top", "refreshing dashboard over the same event stream; read-only", topCmd},
}

func main() {
	if len(os.Args) >= 2 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				os.Exit(exitCode(c.run(os.Args[2:], os.Stdout)))
			}
		}
	}
	usage()
	os.Exit(2)
}

// exitCode maps a command's error to the process exit status: 0 for -h
// (the FlagSet already printed the flags), 2 for a flag error (already
// printed with the command's flags, as flag.ExitOnError would), 1 for any
// other error, which is reported on stderr.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlagParse):
		return 2
	}
	fmt.Fprintf(os.Stderr, "proteomectl: %v\n", err)
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: proteomectl <command> [flags]\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(os.Stderr, "`proteomectl <command> -h` lists the command's flags and their defaults")
}

// errFlagParse wraps FlagSet.Parse failures, which the FlagSet has
// already printed together with the command's usage.
var errFlagParse = errors.New("invalid command-line flags")

// parseFlags normalizes FlagSet.Parse errors: help requests pass through
// for a clean exit 0, anything else becomes errFlagParse (exit 2, no
// duplicate message). Every command takes flags only, so a positional
// argument is a flag error too: Parse stops at the first one, and every
// flag after it would otherwise be dropped without a word.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "unexpected argument %q: %s takes flags only\n", fs.Arg(0), fs.Name())
		fs.Usage()
		return errFlagParse
	}
	return nil
}

// signalContext is done on SIGINT or SIGTERM, which is how sched, worker,
// monitor and top are told to stop.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// withOut runs run on the -out file, or on stdout when path is empty. The
// file is created before run does any work, so a path that cannot be
// created fails at once. The file's Close error is returned too, so a
// failed write-back fails, and a failed run leaves no file behind.
func withOut(path string, stdout io.Writer, run func(io.Writer) error) error {
	if path == "" {
		return run(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = run(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path) // best effort: err is what the caller reports
	}
	return err
}

func findSpecies(code string) (proteome.Species, error) {
	if sp, ok := proteome.SpeciesByCode(code); ok {
		return sp, nil
	}
	return proteome.Species{}, fmt.Errorf("unknown species %q (try: PMER, RRU, DVU, SPDIV)", code)
}

// connFlags is the scheduler-connection block shared by every command
// that dials a running scheduler (worker, submit, monitor, top): the
// address or scheduler file and the dial retry budget — each registered
// exactly once, here — plus -wire, which names the one wire codec.
type connFlags struct {
	connect   string
	schedFile string
	dialRetry time.Duration
	wire      string
}

func (c *connFlags) register(fs *flag.FlagSet, retryDefault time.Duration) {
	fs.StringVar(&c.connect, "connect", "", "scheduler address (host:port)")
	fs.StringVar(&c.schedFile, "scheduler-file", "", "scheduler file to read the address from")
	fs.DurationVar(&c.dialRetry, "dial-retry", retryDefault, "keep retrying the scheduler (and a missing scheduler file) with backoff for this long (0 = one attempt)")
	fs.StringVar(&c.wire, "wire", flow.WireBinary, "wire codec: binary (length-prefixed frames), the only one; every peer of one build speaks it, peers of different builds do not interoperate")
}

func (c *connFlags) validate(cmd string) error {
	if (c.connect == "") == (c.schedFile == "") {
		return fmt.Errorf("%s needs exactly one of -connect or -scheduler-file", cmd)
	}
	if !flow.ValidWire(c.wire) {
		return fmt.Errorf("%s: unknown -wire %q (the only codec is %s)", cmd, c.wire, flow.WireBinary)
	}
	return nil
}

// dialOptions converts the flag block into the one options struct every
// flow dialer consumes.
func (c *connFlags) dialOptions() flow.DialOptions {
	return flow.DialOptions{
		Addr:          c.connect,
		SchedulerFile: c.schedFile,
		Retry:         c.dialRetry,
		Codec:         c.wire,
	}
}
