package flow

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/events"
)

// wireFrames is one canonical frame per message type, as this build's
// peers send it.
func wireFrames() map[string]*message {
	start := time.Unix(1643068800, 250000000).UTC()
	// Spec envelopes around stand-in args, and a scalar result.
	spec := func(args ...byte) []byte {
		p, err := EncodeSpec(JobSpec{Kernel: "campaign/feature", Args: args})
		if err != nil {
			panic(err)
		}
		return p
	}
	return map[string]*message{
		msgRegister: {Type: msgRegister, WorkerID: "w1"},
		msgHeartbeat: {Type: msgHeartbeat, WorkerID: "w1",
			Gauges: &WorkerGauges{Goroutines: 9, HeapBytes: 1 << 20, TasksExecuted: 42, BusyNS: 1500000000}},
		msgSubmit: {Type: msgSubmit, Campaign: "dvu-full", Tasks: []Task{
			{ID: "0", Label: "DVU_00001", Weight: 312, Payload: spec(0x03, 'D', 'V', 'U')},
			{ID: "1", Label: "DVU_00002", Weight: 97.5, Campaign: "rru-pilot"},
		}},
		msgAccepted: {Type: msgAccepted, Count: 2},
		msgTask: {Type: msgTask, Tasks: []Task{
			{ID: "0", Label: "DVU_00001", Weight: 312, Payload: spec(0x03, 'D', 'V', 'U'),
				EnqueuedNS: 1643068800000000000, Campaign: "dvu-full"},
		}},
		msgResult: {Type: msgResult, Results: []Result{
			{TaskID: "0", WorkerID: "w1", EnqueuedNS: 1643068800000000000, Start: start, End: start.Add(1500 * time.Millisecond),
				Payload: []byte("412.375")},
			{TaskID: "1", WorkerID: "w1", Start: start, End: start, Err: "boom"},
		}},
		msgSubscribe: {Type: msgSubscribe},
		msgEvent: {Type: msgEvent, Event: &events.Event{Seq: 7, TimeNS: 1500, Type: events.TaskFailed,
			Task: "DVU_00001", Worker: "w1", Err: "boom", Attempt: 2, Campaign: "dvu-full", Payload: []byte("412.375")}},
	}
}

// TestWireGolden pins the bytes of the hello and of one frame per message
// type. The protocol has one version and no tolerance for
// absent or extra fields, so the only thing that keeps two builds from
// misreading each other is the version in the hello — which helps only if
// it changes whenever the bytes do. The goldens live in a directory named
// after wireVersion: change a frame and this test fails until the version
// is bumped and the goldens regenerated (`go test -update ./internal/flow`).
func TestWireGolden(t *testing.T) {
	root := filepath.Join("testdata", "wire")
	dir := filepath.Join(root, fmt.Sprintf("v%d", wireVersion))
	if *updateCorpus {
		if err := os.RemoveAll(root); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, got []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no golden for wire version %d (run `go test -update ./internal/flow`): %v", wireVersion, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed on the wire but wireVersion is still %d: a peer of the previous build would be accepted and misread.\n"+
				"Bump wireVersion in codec.go, then run `go test -update ./internal/flow`.\n got %q\nwant %q", name, wireVersion, got, want)
		}
	}
	// Binary goldens are stored hex-encoded so the files diff as text.
	check("hello.binary", []byte(helloLine()))
	for typ, m := range wireFrames() {
		var buf bytes.Buffer
		c := newBinaryCodec(bufio.NewReader(&buf), bufio.NewWriter(&buf))
		if err := c.Encode(m); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		check(typ+".binary", append(hex.AppendEncode(nil, buf.Bytes()), '\n'))
		var back message
		if err := c.Decode(&back); err != nil {
			t.Fatalf("%s frame does not decode: %v", typ, err)
		}
		// The decoder yields local times; wireFrames stamps UTC.
		for i := range back.Results {
			back.Results[i].Start = back.Results[i].Start.UTC()
			back.Results[i].End = back.Results[i].End.UTC()
		}
		if !reflect.DeepEqual(&back, m) {
			t.Errorf("%s frame decodes to %+v, want %+v", typ, &back, m)
		}
	}
	// One version means one directory: goldens of a previous version are
	// deleted with it (-update does), not kept beside the new ones.
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(dir) {
		t.Errorf("testdata/wire holds %d entries, want only %s", len(entries), filepath.Base(dir))
	}
}
