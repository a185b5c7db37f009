package flow

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bin"
)

// varintArg is a test kernel's argument block: one signed varint.
type varintArg int

func (v varintArg) AppendBinary(b []byte) ([]byte, error) {
	return binary.AppendVarint(b, int64(v)), nil
}

func readVarint(p []byte) (int, error) {
	r := bin.NewReader(p, "test arg")
	n := r.Int("n")
	return n, r.End()
}

func TestRegistryRegisterAndRun(t *testing.T) {
	r := NewRegistry()
	echo := func(args []byte) ([]byte, error) { return args, nil }
	if err := r.Register("echo", echo); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("", echo); err == nil {
		t.Error("empty name registered")
	}
	if err := r.Register("nilfn", nil); err == nil {
		t.Error("nil func registered")
	}
	if err := r.Register("echo", echo); err == nil {
		t.Error("duplicate name registered")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "echo" {
		t.Errorf("Names() = %v", got)
	}

	payload, err := EncodeSpec(JobSpec{Kernel: "echo", Args: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("\x04echo\x01\x02\x03"); !bytes.Equal(payload, want) {
		t.Errorf("envelope = %q, want %q", payload, want)
	}
	out, err := r.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{1, 2, 3}) {
		t.Errorf("Run = %v", out)
	}
}

func TestRegistryRunErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Run(nil); err == nil {
		t.Error("Run(nil payload) succeeded")
	}
	if _, err := r.Run([]byte("\x05ghost")); err == nil ||
		!strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("Run(unknown kernel) err = %v", err)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	_ = r.Register("double", func(args []byte) ([]byte, error) {
		n, err := readVarint(args)
		if err != nil {
			return nil, err
		}
		return varintArg(2 * n).AppendBinary(nil)
	})
	task, err := NewSpecTask("t1", 0, "double", varintArg(21))
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Handler()(task)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := readVarint(out); err != nil || n != 42 {
		t.Errorf("handler = %v (%v), want 42", out, err)
	}
	// A task without a spec payload is an error for a spec-serving worker.
	if _, err := r.Handler()(Task{ID: "t2"}); err == nil {
		t.Error("handler accepted payload-less task")
	}
}

func TestDecodeSpec(t *testing.T) {
	tests := []struct {
		name    string
		payload string
		wantErr bool
		kernel  string
		args    string
	}{
		{name: "ok", payload: "\x01k\x01\x02", kernel: "k", args: "\x01\x02"},
		{name: "no args", payload: "\x01k", kernel: "k"},
		{name: "empty payload", payload: "", wantErr: true},
		// A JSON spec: '{' reads as a 123-byte kernel name the payload
		// does not hold.
		{name: "not json", payload: `{"kernel":"k"}`, wantErr: true},
		{name: "wrong type", payload: `42`, wantErr: true},
		{name: "missing kernel", payload: "\x80", wantErr: true},
		{name: "empty kernel", payload: "\x00\x01", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := DecodeSpec([]byte(tt.payload))
			if (err != nil) != tt.wantErr {
				t.Fatalf("DecodeSpec(%q) error = %v, wantErr %v", tt.payload, err, tt.wantErr)
			}
			if err == nil && (spec.Kernel != tt.kernel || string(spec.Args) != tt.args) {
				t.Errorf("spec = %q %q, want %q %q", spec.Kernel, spec.Args, tt.kernel, tt.args)
			}
		})
	}
}

func TestEncodeSpecRejectsEmptyKernel(t *testing.T) {
	if _, err := EncodeSpec(JobSpec{}); err == nil {
		t.Error("EncodeSpec with empty kernel succeeded")
	}
	if _, err := NewSpecTask("t", 0, "", nil); err == nil {
		t.Error("NewSpecTask with empty kernel succeeded")
	}
}

func TestNewSpecTaskRoundTrip(t *testing.T) {
	task, err := NewSpecTask("job-7", 3.5, "stage/kernel", varintArg(-9))
	if err != nil {
		t.Fatal(err)
	}
	if task.ID != "job-7" || task.Weight != 3.5 {
		t.Errorf("task = %+v", task)
	}
	spec, err := DecodeSpec(task.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := readVarint(spec.Args); spec.Kernel != "stage/kernel" || err != nil || n != -9 {
		t.Errorf("spec = %q %v (%v)", spec.Kernel, n, err)
	}
	// Pre-encoded args travel verbatim, and no args is an empty block.
	for _, args := range []any{[]byte{7, 8}, nil} {
		task, err := NewSpecTask("raw", 0, "k", args)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := args.([]byte)
		if spec, err := DecodeSpec(task.Payload); err != nil || !bytes.Equal(spec.Args, want) {
			t.Errorf("args %v decode to %v (%v)", args, spec.Args, err)
		}
	}
	// One encoding: anything that is neither bytes nor a BinaryAppender
	// fails loudly rather than falling back to JSON.
	for _, args := range []any{21, "x", json.RawMessage(`1`), func() {}} {
		if _, err := NewSpecTask("bad", 0, "k", args); err == nil {
			t.Errorf("NewSpecTask with %T args succeeded", args)
		}
	}
}

func TestParseSchedulerFile(t *testing.T) {
	tests := []struct {
		name    string
		data    string
		wantErr bool
		addr    string
	}{
		{name: "ok", data: `{"address":"127.0.0.1:8786","started_at":"2022-01-25T00:00:00Z"}`, addr: "127.0.0.1:8786"},
		{name: "no address", data: `{"started_at":"2022-01-25T00:00:00Z"}`, wantErr: true},
		{name: "empty", data: ``, wantErr: true},
		{name: "not json", data: `address=127.0.0.1`, wantErr: true},
		{name: "wrong type", data: `["127.0.0.1:8786"]`, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sf, err := ParseSchedulerFile([]byte(tt.data))
			if (err != nil) != tt.wantErr {
				t.Fatalf("error = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && sf.Address != tt.addr {
				t.Errorf("address = %q, want %q", sf.Address, tt.addr)
			}
		})
	}
}

// TestSpecTasksThroughCluster drives spec tasks through a real
// scheduler/worker/client round trip with a local registry handler.
func TestSpecTasksThroughCluster(t *testing.T) {
	r := NewRegistry()
	_ = r.Register("inc", func(args []byte) ([]byte, error) {
		n, err := readVarint(args)
		if err != nil {
			return nil, err
		}
		return varintArg(n + 1).AppendBinary(nil)
	})

	s := NewScheduler()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := NewWorker("spec-worker", r.Handler())
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, err := connectClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i], err = NewSpecTask(string(rune('a'+i)), 0, "inc", varintArg(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	results, err := c.Map(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results", len(results))
	}
	for _, res := range results {
		if res.Failed() {
			t.Fatalf("task %s failed: %s", res.TaskID, res.Err)
		}
		n, err := readVarint(res.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(res.TaskID[0]-'a') + 1; n != want {
			t.Errorf("task %s = %d, want %d", res.TaskID, n, want)
		}
	}
}
