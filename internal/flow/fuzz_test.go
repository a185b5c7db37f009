package flow

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bin"
	"repro/internal/events"
)

// -update regenerates the checked-in binary-frame fuzz corpora and the
// wire goldens (testdata/wire); review the diff before committing.
var updateCorpus = flag.Bool("update", false, "rewrite the checked-in binary-frame fuzz corpora and wire goldens")

// specSeeds are spec envelopes shaped like the campaign kernels' (the
// args bytes are stand-ins: the envelope does not read them) plus the
// malformed headers the decoder must refuse.
func specSeeds() [][]byte {
	spec := func(kernel string, args ...byte) []byte {
		p, err := EncodeSpec(JobSpec{Kernel: kernel, Args: args})
		if err != nil {
			panic(err)
		}
		return p
	}
	return [][]byte{
		spec("campaign/feature", 0xcd, 0xe0, 0xd2, 0x09, 0x03, 'D', 'V', 'U'),
		spec("campaign/infer", 0xcd, 0xe0, 0xd2, 0x09, 0x00, 0x00, 0x08),
		spec("campaign/relax", 0xb0, 0x02, 0x04),
		spec("k"),
		{0x00},            // empty kernel name
		{},                // no payload
		{0x05, 'k'},       // kernel name past the end
		{0x81, 0x00, 'k'}, // non-minimal length varint
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // overflowing varint
		{0x01, 0x00}, // a NUL kernel name
	}
}

// FuzzDecodeSpec hardens the job-spec envelope decoder: arbitrary
// payloads must yield either a valid spec (non-empty kernel) or an error —
// never a panic — and an accepted payload must re-encode to exactly its
// own bytes.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range specSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		if spec.Kernel == "" {
			t.Fatal("DecodeSpec accepted a spec with empty kernel")
		}
		payload, err := EncodeSpec(spec)
		if err != nil {
			t.Fatalf("EncodeSpec(decoded spec): %v", err)
		}
		if !bytes.Equal(payload, data) {
			t.Fatalf("spec re-encodes to %q, was %q", payload, data)
		}
	})
}

// FuzzParseSchedulerFile hardens the scheduler-file parser workers and
// clients trust to locate the cluster.
func FuzzParseSchedulerFile(f *testing.F) {
	f.Add([]byte(`{"address":"127.0.0.1:8786","started_at":"2022-01-25T00:00:00Z"}`))
	f.Add([]byte(`{"address":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"address":"host:port","extra":{"nested":[1,2,{}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ParseSchedulerFile(data)
		if err != nil {
			return
		}
		if sf.Address == "" {
			t.Fatal("ParseSchedulerFile accepted a file with no address")
		}
	})
}

// FuzzAcceptHello hardens the first thing the scheduler does with a new
// connection, before any codec exists: whatever bytes a peer opens with,
// acceptCodec must either refuse them or have read exactly the hello this
// build sends. A hello naming another codec — the JSON one of earlier
// builds — is refused with an error naming the one this build speaks.
func FuzzAcceptHello(f *testing.F) {
	v := func(format string) []byte { return fmt.Appendf(nil, format, wireVersion) }
	f.Add(append(v("flow-wire json %d\n"), `{"type":"subscribe"}`+"\n"...))
	f.Add([]byte(helloLine()))
	f.Add([]byte("flow-wire json\n"))
	f.Add([]byte("flow-wire binary 0\n"))
	// Near misses of this build's own hello.
	f.Add(v("flow-wire binary %d \n"))
	f.Add(v("flow-wire  %d\n"))
	f.Add(v("flow-wire binary 0%d\n"))
	f.Add([]byte("flow-wire binary 18446744073709551617\n"))
	f.Add(v("flow-wire msgpack %d\n"))
	f.Add([]byte(`{"type":"register","worker_id":"w1"}` + "\n"))
	f.Add([]byte("GET /metrics HTTP/1.1\r\n\r\n"))
	f.Add(v("flow-wire binary %d"))
	f.Add([]byte{})
	f.Add(append(v("flow-wire json %d\n"), binFrame(appendMessage(nil, &message{Type: msgRegister, WorkerID: "w1"}))...))
	jsonHello := v("flow-wire json %d\n")
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := acceptCodec(bufio.NewReader(bytes.NewReader(data)), bufio.NewWriter(io.Discard))
		if bytes.HasPrefix(data, jsonHello) {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(WireBinary)) {
				t.Fatalf("json hello %q: err = %v, want a refusal naming %q", data, err, WireBinary)
			}
			return
		}
		if err == nil && !bytes.HasPrefix(data, []byte(helloLine())) {
			t.Fatalf("accepted %q as a peer of version %d", data, wireVersion)
		}
	})
}

// binFrame wraps a frame body in the binary wire's 4-byte big-endian
// length prefix.
func binFrame(body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	return append(hdr[:], body...)
}

// binaryCorpus names the hostile shapes the binary decoder must survive;
// the entries are also checked in under testdata/fuzz so the CI
// fuzz-smoke job replays them without regenerating.
func binaryCorpus() map[string][]byte {
	full := appendMessage(nil, fullMessage())
	bareBeat := appendMessage(nil, &message{Type: msgHeartbeat, WorkerID: "w1"})
	gaugedBeat := appendMessage(nil, &message{Type: msgHeartbeat, WorkerID: "w1",
		Gauges: &WorkerGauges{Goroutines: 9, HeapBytes: 1 << 20, TasksExecuted: 42, BusyNS: 1500000000}})
	// A done event carrying its result payload, as the monitor stream
	// relays it.
	doneEvent := appendMessage(nil, &message{Type: msgEvent, Event: &events.Event{Seq: 6, TimeNS: 9000,
		Type: events.TaskDone, Task: "DVU_00001", Worker: "w1", Payload: []byte("412.375")}})
	batch := appendMessage(nil, &message{Type: msgTask, Tasks: []Task{
		{ID: "t1", Payload: specSeeds()[3]},
		{ID: "t2", Payload: specSeeds()[3]},
		{ID: "t3", Payload: specSeeds()[3]},
	}})
	return map[string][]byte{
		// A frame whose header promises more body than arrives.
		"truncated_frame": binFrame(full)[:4+len(full)/2],
		// A length prefix far past maxBinaryFrame: must be rejected before
		// it sizes an allocation.
		"oversized_length_prefix": {0xFF, 0xFF, 0xFF, 0xFF},
		// A batched handout torn mid-task: the count field promises three
		// tasks but the body ends inside the third.
		"torn_batch": binFrame(batch[:len(batch)-12]),
		// A heartbeat whose body ends before the gauges presence byte: every
		// field is mandatory, so this is corruption like any other.
		"heartbeat_no_presence_byte": binFrame(bareBeat[:len(bareBeat)-1]),
		// A gauge-carrying heartbeat torn inside the gauges.
		"torn_gauges": binFrame(gaugedBeat[:len(gaugedBeat)-3]),
		// An intact event frame whose event carries a payload.
		"event_with_payload": binFrame(doneEvent),
	}
}

// FuzzDecodeBinaryFrame hardens the wire decoder: the scheduler decodes
// frames from attacker-controllable TCP bytes, so any input must produce
// either an error or a message whose canonical encoding is a fixed point —
// encode(decode(data)) must decode again and re-encode to the same
// bytes. (The input itself need not re-encode byte-identically: varints
// have redundant non-minimal encodings the decoder accepts.)
func FuzzDecodeBinaryFrame(f *testing.F) {
	f.Add(binFrame(appendMessage(nil, fullMessage())))
	f.Add(binFrame(appendMessage(nil, &message{Type: msgRegister, WorkerID: "w1"})))
	f.Add(binFrame(appendMessage(nil, &message{Type: msgHeartbeat, WorkerID: "w1"})))
	f.Add(binFrame(appendMessage(nil, &message{Type: msgHeartbeat, WorkerID: "w1",
		Gauges: &WorkerGauges{Goroutines: 9, HeapBytes: 1 << 20, TasksExecuted: 42, BusyNS: 1500000000}})))
	f.Add(binFrame(appendMessage(nil, &message{Type: msgSubmit, Tasks: makeTasks(3)})))
	f.Add(binFrame(appendMessage(nil, &message{Type: msgAccepted, Count: 3})))
	f.Add(binFrame(nil))
	f.Add([]byte{0, 0, 0})
	for _, body := range binaryCorpus() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newBinaryCodec(bufio.NewReader(bytes.NewReader(data)), bufio.NewWriter(io.Discard))
		var m message
		if err := c.Decode(&m); err != nil {
			return
		}
		b1 := appendMessage(nil, &m)
		var again message
		r := bin.NewReader(b1, frameWhat)
		readMessage(&r, &again)
		if err := r.End(); err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if b2 := appendMessage(nil, &again); !bytes.Equal(b1, b2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// TestBinaryFuzzCorpusUpToDate pins the checked-in corpus files to the
// shapes binaryCorpus describes, so editing the wire layout forces a
// corpus refresh (`go test -update ./internal/flow`) instead of letting
// the seeds silently drift from the format they are meant to tear.
func TestBinaryFuzzCorpusUpToDate(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeBinaryFrame")
	for name, data := range binaryCorpus() {
		path := filepath.Join(dir, name)
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data))
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading corpus entry (run `go test -update ./internal/flow` to create it): %v", err)
		}
		if string(got) != entry {
			t.Errorf("corpus entry %s is stale; run `go test -update ./internal/flow` and review", name)
		}
	}
}
