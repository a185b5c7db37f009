package events

import (
	"bytes"
	"testing"
)

// FuzzReadLog hardens the JSONL event-log decoder: `proteomectl` tools
// replay logs from disk, so arbitrary bytes must yield either valid
// events or an error — never a panic — and whatever decodes must survive
// a write/read round trip through the LogSink encoding, and must fold
// without breaking the Fold's invariants (ReadLog's callers replay what it
// returns).
func FuzzReadLog(f *testing.F) {
	f.Add([]byte(`{"seq":1,"t_ns":0,"type":"worker_join","worker":"w1"}
{"seq":2,"t_ns":100,"type":"received","task":"DVU_00001"}
{"seq":3,"t_ns":100,"type":"queued","task":"DVU_00001"}
{"seq":4,"t_ns":250,"type":"assigned","task":"DVU_00001","worker":"w1"}
{"seq":5,"t_ns":251,"type":"running","task":"DVU_00001","worker":"w1"}
{"seq":6,"t_ns":9000,"type":"done","task":"DVU_00001","worker":"w1"}
`))
	f.Add([]byte(`{"seq":1,"t_ns":5,"type":"failed","task":"a/m3","worker":"w2","error":"boom"}`))
	f.Add([]byte(`{"seq":1,"t_ns":5,"type":"dropped","task":"a"}`))
	f.Add([]byte(`{"seq":1,"t_ns":5,"type":"worker_leave","worker":"w9"}`))
	f.Add([]byte(`{"seq":1,"t_ns":5,"type":"worker_lost","worker":"w1","error":"silent for 300ms"}`))
	f.Add([]byte(`{"seq":1,"t_ns":5,"type":"quarantined","task":"DVU_00001","attempt":3}`))
	f.Add([]byte(`{"seq":1,"t_ns":5,"type":"truncated","error":"events: 6 events evicted from bounded backlog"}`))
	f.Add([]byte(`{"seq":1,"t_ns":5,"type":"failed","task":"a","error":"retry budget 2","attempt":3}
{"seq":2,"t_ns":6,"type":"quarantined","task":"a","attempt":3}`))
	f.Add([]byte(`{"seq":18446744073709551615,"t_ns":-1,"type":"queued","task":"x"}`))
	f.Add([]byte(`{"type":"done"}`))
	f.Add([]byte(`{"type":"warp","task":"a"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("{\"seq\":1,\"t_ns\":1,\"type\":\"queued\",\"task\":\"a\"}\n{broken"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadLog(bytes.NewReader(data))
		for i := range evs {
			// Every returned event is structurally valid, error or not
			// (a failing log still returns its intact prefix).
			if verr := evs[i].Validate(); verr != nil {
				t.Fatalf("ReadLog returned invalid event %d: %v", i, verr)
			}
		}
		fold := NewFold()
		for i := range evs {
			fold.Observe(&evs[i])
			if ferr := CheckFold(fold); ferr != nil {
				t.Fatalf("after event %d %+v: %v", i, evs[i], ferr)
			}
		}
		// The resume reader pairs only payloads some received event carried.
		done, _ := CompletedFromLog(bytes.NewReader(data))
		received := map[string]bool{}
		for i := range evs {
			if evs[i].Type == TaskReceived {
				received[string(evs[i].Payload)] = true
			}
		}
		for spec := range done {
			if !received[spec] {
				t.Fatalf("resume reader paired %q, which no received event carried", spec)
			}
		}
		if err != nil {
			return
		}
		// Valid logs round-trip through the LogSink encoding.
		var buf bytes.Buffer
		sink := LogSink(&buf)
		for _, e := range evs {
			sink(e)
		}
		again, err := ReadLog(&buf)
		if err != nil {
			t.Fatalf("re-reading re-encoded log: %v", err)
		}
		if len(again) != len(evs) {
			t.Fatalf("round trip changed event count: %d != %d", len(again), len(evs))
		}
		for i := range evs {
			if !sameEvent(again[i], evs[i]) {
				t.Fatalf("event %d changed across round trip: %+v != %+v", i, again[i], evs[i])
			}
		}
	})
}
