package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/flow"
)

// proc is one child process of a workload. Each runs in its own process
// group so a failure or an interrupt can kill it with everything it
// spawned, and each is waited for so its rusage is collected.
type proc struct {
	cmd *exec.Cmd
	// stdout and stderr are only read after done is closed.
	stdout, stderr bytes.Buffer
	done           chan struct{}
	waitErr        error
	// peakRSSMB is the largest VmHWM samplePeak has seen.
	peakRSSMB float64
}

// live is the set of children not yet reaped, for the interrupt handler.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// spawn starts a child; env, when non-nil, is appended to the bench's own
// environment.
func spawn(name, bin string, env []string, args ...string) (*proc, error) {
	p := &proc{done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	if env != nil {
		p.cmd.Env = append(os.Environ(), env...)
	}
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	go func() {
		p.waitErr = p.cmd.Wait()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.done)
	}()
	return p, nil
}

// kill SIGKILLs the child's whole process group.
func (p *proc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
}

// stop asks the child to exit (SIGTERM: the scheduler flushes its event
// log on it) and kills its group if it has not within grace.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.kill()
		<-p.done
	}
}

// killAllChildren is the interrupt path: every live process group dies.
func killAllChildren() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
	for _, p := range ps {
		<-p.done
	}
}

// usage is an exited child's CPU (wait4) and peak RSS (samplePeak).
type usage struct {
	cpuS     float64
	maxRSSMB float64
}

func (p *proc) usage() usage {
	<-p.done
	u := usage{maxRSSMB: p.peakRSSMB}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return u
}

// samplePeak reads the live child's high-water RSS from /proc. wait4's
// ru_maxrss cannot serve: a child started by vfork+exec inherits the
// parent's high-water mark, so once the bench process has grown every
// child would read at least as large.
func (p *proc) samplePeak() {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return
	}
	if _, rest, ok := strings.Cut(string(data), "VmHWM:"); ok {
		if f := strings.Fields(rest); len(f) > 0 {
			if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
				p.peakRSSMB = max(p.peakRSSMB, kb/1024)
			}
		}
	}
}

// waitSampling waits for a child that exits on its own, sampling its peak
// RSS every 20 ms meanwhile — close enough for `submit`, which is largest
// at the end, holding the last wave's results. It reports false if the
// deadline passes first.
func (p *proc) waitSampling(deadline time.Time) bool {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	timeout := time.After(time.Until(deadline))
	for {
		select {
		case <-p.done:
			return true
		case <-tick.C:
			p.samplePeak()
		case <-timeout:
			return false
		}
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// selfCPU is the user+sys CPU the bench process has used so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// buildProteomectl builds the program under test from the checkout's
// source into the work directory. Its time is excluded from every metric.
func buildProteomectl(root, workDir string) (string, error) {
	bin := filepath.Join(workDir, "proteomectl")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/proteomectl")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building proteomectl: %v\n%s", err, out)
	}
	return bin, nil
}

// fleetOpts describes one deployment: the scheduler's and the workers'
// extra flags, and whether the scheduler's instruments are on.
type fleetOpts struct {
	workers    int
	schedArgs  []string
	workerArgs []string
	// instruments turns on `sched -event-log F -http 127.0.0.1:0`.
	instruments bool
	// env is added to every process's environment.
	env []string
}

// deployment is a running sched + N worker processes.
type deployment struct {
	schedFile string
	eventLog  string
	httpAddr  string
	startedAt time.Time // the scheduler's own start stamp, for aligning event times
	sched     *proc
	workers   []*proc
	setup     time.Duration
}

// deploy brings up the documented deployment — scheduler first, then
// the workers through its scheduler file — and returns once every worker
// has joined, which the scheduler's own event stream says.
func deploy(bin, dir string, o fleetOpts, deadline time.Time) (cl *deployment, err error) {
	t0 := time.Now()
	cl = &deployment{schedFile: filepath.Join(dir, "sched.json")}
	defer func() {
		if err != nil {
			cl.kill()
		}
	}()
	args := []string{"sched", "-listen", "127.0.0.1:0", "-scheduler-file", cl.schedFile}
	if o.instruments {
		cl.eventLog = filepath.Join(dir, "events.jsonl")
		args = append(args, "-event-log", cl.eventLog, "-http", "127.0.0.1:0")
	}
	if cl.sched, err = spawn("sched", bin, o.env, append(args, o.schedArgs...)...); err != nil {
		return cl, err
	}
	var sf flow.SchedulerFile
	for {
		data, rerr := os.ReadFile(cl.schedFile)
		if rerr == nil {
			if sf, rerr = flow.ParseSchedulerFile(data); rerr == nil {
				break
			}
		}
		select {
		case <-cl.sched.done:
			return cl, fmt.Errorf("sched exited during bring-up: %v\n%s", cl.sched.waitErr, cl.sched.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return cl, errors.New("scheduler file not written before the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	cl.httpAddr, cl.startedAt = sf.HTTP, sf.StartedAt
	for i := 0; i < o.workers; i++ {
		wargs := append([]string{"worker", "-scheduler-file", cl.schedFile, "-id", "w" + strconv.Itoa(i)}, o.workerArgs...)
		w, werr := spawn("worker", bin, o.env, wargs...)
		if werr != nil {
			return cl, werr
		}
		cl.workers = append(cl.workers, w)
	}
	m, err := flow.DialMonitor(flow.DialOptions{SchedulerFile: cl.schedFile})
	if err != nil {
		return cl, err
	}
	defer m.Close()
	m.ReadTimeout = time.Until(deadline)
	for joined := 0; joined < o.workers; {
		e, nerr := m.Next()
		if nerr != nil {
			return cl, fmt.Errorf("waiting for workers (%d/%d joined): %w", joined, o.workers, nerr)
		}
		if e.Type == events.WorkerJoin {
			joined++
		}
	}
	cl.setup = time.Since(t0)
	return cl, nil
}

// kill is the failure path: every process group of the cluster dies.
func (cl *deployment) kill() {
	for _, p := range append([]*proc{cl.sched}, cl.workers...) {
		if p != nil {
			p.kill()
			<-p.done
		}
	}
}

// stop shuts the cluster down cleanly (so the event log is flushed) and
// returns the scheduler's usage and the workers' (CPU summed, RSS max).
func (cl *deployment) stop() (sched, workers usage) {
	for _, p := range append([]*proc{cl.sched}, cl.workers...) {
		p.samplePeak()
	}
	cl.sched.stop(5 * time.Second)
	for _, w := range cl.workers {
		// Workers exit on their own once the scheduler is gone.
		w.stop(5 * time.Second)
	}
	sched = cl.sched.usage()
	for _, w := range cl.workers {
		u := w.usage()
		workers.cpuS += u.cpuS
		workers.maxRSSMB = max(workers.maxRSSMB, u.maxRSSMB)
	}
	return sched, workers
}
