package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/flow"
)

// workerOptions is the `worker` flag block: the shared connection flags
// plus worker identity and heartbeat cadence.
type workerOptions struct {
	conn      connFlags
	id        string
	heartbeat time.Duration
}

func (o *workerOptions) register(fs *flag.FlagSet) {
	o.conn.register(fs, 30*time.Second)
	fs.StringVar(&o.id, "id", fmt.Sprintf("worker-%d", os.Getpid()), "worker identity")
	fs.DurationVar(&o.heartbeat, "heartbeat", 15*time.Second, "send a liveness heartbeat to the scheduler on this interval (0 disables); pair with sched -heartbeat-timeout to detect wedged workers")
}

// workerCmd runs one dataflow worker serving the registered campaign
// kernels — terminal 2 (started once per GPU in the paper, up to 6,000
// times). It exits when interrupted or when the scheduler goes away.
func workerCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var o workerOptions
	o.register(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := o.conn.validate("worker"); err != nil {
		return err
	}
	experiments.RegisterCampaignKernels()
	w := flow.NewWorker(o.id, flow.SpecHandler())
	w.HeartbeatInterval = o.heartbeat
	if err := w.Dial(o.conn.dialOptions()); err != nil {
		return err
	}
	defer w.Close()
	fmt.Fprintf(stdout, "worker %s serving kernels %v\n", o.id, flow.DefaultRegistry().Names())

	// Exit on a signal or when the scheduler connection drops.
	ctx, stop := signalContext()
	defer stop()
	done := make(chan struct{})
	go func() {
		w.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return nil
}
