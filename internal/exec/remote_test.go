package exec

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bin"
	"repro/internal/flow"
)

// num is the test kernels' argument and result: one signed varint.
type num int

func (n num) AppendBinary(b []byte) ([]byte, error) { return binary.AppendVarint(b, int64(n)), nil }

func (n *num) UnmarshalBinary(p []byte) error {
	r := bin.NewReader(p, "exectest num")
	*n = num(r.Int("n"))
	return r.End()
}

// enc is n's encoding, as an argument block or a result payload.
func enc(n int) []byte {
	b, _ := num(n).AppendBinary(nil)
	return b
}

// specOf is the spec envelope of kernel on argument n, as MapSpecResume
// builds it for dispatch and for the resume lookup.
func specOf(kernel string, n int) []byte {
	p, err := flow.EncodeSpec(flow.JobSpec{Kernel: kernel, Args: enc(n)})
	if err != nil {
		panic(err)
	}
	return p
}

// Test kernels registered once in the process-wide registry.
var registerTestKernels sync.Once

func testKernels(t *testing.T) {
	t.Helper()
	registerTestKernels.Do(func() {
		// square decodes a num and returns its square.
		err := flow.Register("exectest/square", func(args []byte) ([]byte, error) {
			var n num
			if err := n.UnmarshalBinary(args); err != nil {
				return nil, err
			}
			return (n * n).AppendBinary(nil)
		})
		if err != nil {
			panic(err)
		}
		// failodd errors on odd inputs.
		err = flow.Register("exectest/failodd", func(args []byte) ([]byte, error) {
			var n num
			if err := n.UnmarshalBinary(args); err != nil {
				return nil, err
			}
			if n%2 == 1 {
				return nil, fmt.Errorf("odd input %d", n)
			}
			return n.AppendBinary(nil)
		})
		if err != nil {
			panic(err)
		}
		// empty returns no result bytes at all.
		err = flow.Register("exectest/empty", func([]byte) ([]byte, error) { return nil, nil })
		if err != nil {
			panic(err)
		}
	})
}

// remoteCluster builds the multi-process topology inside one test process:
// a standalone scheduler, spec-serving workers (the handler a
// `proteomectl worker` process uses), and a client-only remote executor.
func remoteCluster(t *testing.T, workers int) *Flow {
	t.Helper()
	testKernels(t)
	sched := flow.NewScheduler()
	addr, err := sched.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	for i := 0; i < workers; i++ {
		w := flow.NewWorker(fmt.Sprintf("spec-w%d", i), flow.SpecHandler())
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	f, err := Connect(flow.DialOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRemoteFlowDispatchSpecs(t *testing.T) {
	f := remoteCluster(t, 3)
	items := make([]num, 50)
	for i := range items {
		items[i] = num(i)
	}
	out, err := MapSpecResume(f, "exectest/square", 1, items, nil,
		func(_ int, n num) num { return n },
		func(_ int, n num) (num, error) { t.Fatal("closure must not run on a remote executor"); return 0, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range items {
		if out[i] != n*n {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], n*n)
		}
	}
}

func TestRemoteFlowLowestIndexError(t *testing.T) {
	f := remoteCluster(t, 4)
	items := []num{0, 2, 5, 3, 8, 9}
	_, err := MapSpecResume(f, "exectest/failodd", 1, items, nil,
		func(_ int, n num) num { return n },
		func(_ int, n num) (num, error) { return n, nil }, nil)
	if err == nil {
		t.Fatal("expected error from odd inputs")
	}
	// Lowest failing index is 2 (value 5), never index 3 or 5.
	if !strings.Contains(err.Error(), "[2]") || !strings.Contains(err.Error(), "odd input 5") {
		t.Fatalf("error %q does not surface the lowest-index failure", err)
	}
}

func TestRemoteFlowUnknownKernel(t *testing.T) {
	f := remoteCluster(t, 1)
	_, err := f.DispatchSpecs("exectest/unregistered", [][]byte{specOf("exectest/unregistered", 1)}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("err = %v, want unknown kernel", err)
	}
}

func TestRemoteFlowRejectsClosures(t *testing.T) {
	f := remoteCluster(t, 1)
	err := f.Run(Batch{N: 3, Fn: func(i int) error { return nil }})
	if err == nil || !strings.Contains(err.Error(), "closures") {
		t.Fatalf("Run on remote executor: err = %v, want closure rejection", err)
	}
	// n == 0 short-circuits before the remote guard, like every executor.
	if err := f.Run(Batch{N: 0}); err != nil {
		t.Fatalf("Run of an empty batch = %v", err)
	}
}

func TestRemoteFlowClosed(t *testing.T) {
	f := remoteCluster(t, 1)
	f.Close()
	f.Close() // idempotent
	if _, err := f.DispatchSpecs("exectest/square", [][]byte{specOf("exectest/square", 1)}, nil); err == nil {
		t.Fatal("DispatchSpecs on closed executor succeeded")
	}
}

func TestMapSpecFallsBackToClosures(t *testing.T) {
	// An executor that is not a SpecDispatcher (the pool) runs the
	// closure; arg builders must not even be invoked.
	pool := &Pool{Workers: 4}
	items := []num{1, 2, 3}
	out, err := MapSpecResume(pool, "exectest/square", 1, items, nil,
		func(_ int, n num) num { t.Fatal("arg builder must not run on the pool"); return 0 },
		func(_ int, n num) (num, error) { return n + 10, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 11 || out[1] != 12 || out[2] != 13 {
		t.Fatalf("pool MapSpecResume = %v", out)
	}
}

// TestConcurrentClientsSharedScheduler drives two independent remote
// clients against ONE standalone scheduler at the same time. Task IDs are
// namespaced per client, so results must never cross-deliver between the
// two submitters — the shared-scheduler deployment `proteomectl sched`
// makes first class.
func TestConcurrentClientsSharedScheduler(t *testing.T) {
	testKernels(t)
	sched := flow.NewScheduler()
	addr, err := sched.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	for i := 0; i < 3; i++ {
		w := flow.NewWorker(fmt.Sprintf("shared-w%d", i), flow.SpecHandler())
		if err := w.Connect(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}

	const clients, rounds, n = 2, 5, 40
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			f, err := Connect(flow.DialOptions{Addr: addr})
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			// Each client squares a distinct value range; any
			// cross-delivered result would land in the wrong slot.
			base := 1000 * (c + 1)
			for r := 0; r < rounds; r++ {
				specs := make([][]byte, n)
				for i := range specs {
					specs[i] = specOf("exectest/square", base+i)
				}
				out, err := f.DispatchSpecs("exectest/square", specs, nil)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
				for i := range out {
					want := enc((base + i) * (base + i))
					if string(out[i]) != string(want) {
						errs <- fmt.Errorf("client %d round %d: out[%d] = %v, want %v", c, r, i, out[i], want)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDispatchSpecsEmpty(t *testing.T) {
	f := remoteCluster(t, 1)
	out, err := f.DispatchSpecs("exectest/square", nil, nil)
	if err != nil || out != nil {
		t.Fatalf("empty dispatch = %v, %v", out, err)
	}
}

// TestMapSpecEmptyResultIsAnError: a kernel that returns no bytes is a
// decode error, not a zero value. (For inference a zero value would read
// as an out-of-memory digest and be rerouted silently.)
func TestMapSpecEmptyResultIsAnError(t *testing.T) {
	f := remoteCluster(t, 1)
	_, err := MapSpecResume(f, "exectest/empty", 1, []num{1, 2}, nil,
		func(_ int, n num) num { return n },
		func(_ int, n num) (num, error) { return n, nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "empty payload") {
		t.Fatalf("err = %v, want an empty-payload decode error", err)
	}
}
