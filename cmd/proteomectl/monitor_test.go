package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/flow"
)

// scriptedSource feeds a fixed event sequence, then ends like a closed
// monitor (wrapping flow.ErrStreamEnd) or, when failWith is set, fails
// mid-stream like a protocol error.
type scriptedSource struct {
	evs      []events.Event
	i        int
	failWith error
}

func (s *scriptedSource) Next() (events.Event, error) {
	if s.i >= len(s.evs) {
		if s.failWith != nil {
			return events.Event{}, s.failWith
		}
		return events.Event{}, fmt.Errorf("%w: connection closed", flow.ErrStreamEnd)
	}
	e := s.evs[s.i]
	s.i++
	return e, nil
}

func campaignEvents() []events.Event {
	evs := []events.Event{
		{Type: events.WorkerJoin, Worker: "w1"},
		{Type: events.TaskReceived, Task: "DVU_00001"},
		{Type: events.TaskQueued, Task: "DVU_00001"},
		{Type: events.TaskReceived, Task: "DVU_00002"},
		{Type: events.TaskQueued, Task: "DVU_00002"},
		{Type: events.TaskAssigned, Task: "DVU_00001", Worker: "w1"},
		{Type: events.TaskRunning, Task: "DVU_00001", Worker: "w1"},
		{Type: events.TaskDone, Task: "DVU_00001", Worker: "w1"},
		{Type: events.TaskAssigned, Task: "DVU_00002", Worker: "w1"},
		{Type: events.TaskRunning, Task: "DVU_00002", Worker: "w1"},
		{Type: events.TaskFailed, Task: "DVU_00002", Worker: "w1", Err: "boom"},
		{Type: events.WorkerLeave, Worker: "w1"},
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
		evs[i].TimeNS = int64(i) * 250_000_000 // 0.25s apart
	}
	return evs
}

func TestRunMonitorSummaryLines(t *testing.T) {
	var buf bytes.Buffer
	if err := runMonitor(&scriptedSource{evs: campaignEvents()}, &buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// One line per event plus the closing summary.
	if len(lines) != len(campaignEvents())+1 {
		t.Fatalf("monitor printed %d lines, want %d:\n%s", len(lines), len(campaignEvents())+1, out)
	}
	for _, want := range []string{
		"worker_join w1",
		"queued      DVU_00001",
		"queue=2",
		"running     DVU_00001",
		"worker=w1",
		"done        DVU_00001",
		"failed      DVU_00002",
		"err=boom",
		"monitor: 2 received, 1 done, 1 failed, 0 dropped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("monitor output missing %q:\n%s", want, out)
		}
	}
	// Throughput over the 2.75 s span: 1 done / 2.75 s.
	if !strings.Contains(out, "(0.36 tasks/s)") {
		t.Errorf("monitor summary missing throughput:\n%s", out)
	}
}

func TestRunMonitorRawJSONL(t *testing.T) {
	evs := campaignEvents()
	var buf bytes.Buffer
	if err := runMonitor(&scriptedSource{evs: evs}, &buf, true); err != nil {
		t.Fatal(err)
	}
	// Raw mode is byte-compatible with the -event-log format: decoding
	// it yields the exact event sequence.
	got, err := events.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("raw stream decoded to %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if !reflect.DeepEqual(got[i], evs[i]) {
			t.Fatalf("event %d changed: %+v != %+v", i, got[i], evs[i])
		}
	}
}

// TestRunMonitorSurfacesStreamErrors: only a clean stream end
// (flow.ErrStreamEnd) exits 0; a mid-stream protocol error propagates,
// so a truncated -json capture never looks like a complete log.
func TestRunMonitorSurfacesStreamErrors(t *testing.T) {
	boom := errors.New("flow: monitor stream: invalid frame")
	for _, raw := range []bool{true, false} {
		var buf bytes.Buffer
		err := runMonitor(&scriptedSource{evs: campaignEvents()[:3], failWith: boom}, &buf, raw)
		if !errors.Is(err, boom) {
			t.Errorf("raw=%v: runMonitor error = %v, want the stream error", raw, err)
		}
	}
}

func TestMonitorCmdFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := monitorCmd([]string{}, &buf); err == nil {
		t.Error("monitor with neither -connect nor -scheduler-file succeeded")
	}
	if err := monitorCmd([]string{"-connect", "x", "-scheduler-file", "y"}, &buf); err == nil {
		t.Error("monitor with both -connect and -scheduler-file succeeded")
	}
	if err := monitorCmd([]string{"-scheduler-file", "/nonexistent/sched.json"}, &buf); err == nil {
		t.Error("monitor with a missing scheduler file succeeded")
	}
	if err := monitorCmd([]string{"-bogus"}, &buf); !errors.Is(err, errFlagParse) {
		t.Errorf("bad flag error = %v, want errFlagParse", err)
	}
}

func TestSchedCmdEventLogFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	// An uncreatable event-log path must fail before the scheduler binds.
	err := schedCmd([]string{"-listen", "127.0.0.1:0", "-event-log", "/nonexistent/dir/events.jsonl"}, &buf)
	if err == nil {
		t.Fatal("sched with uncreatable -event-log succeeded")
	}
	if !strings.Contains(err.Error(), "nonexistent") {
		t.Errorf("error %v does not name the bad path", err)
	}
}

// TestSchedResumeLogRefusesTruncated: `sched -resume-log` on a log whose
// truncated marker stands for one lost event — contiguous sequence
// numbers, and still a gap — exits with the refusal and leaves the log
// as it found it.
func TestSchedResumeLogRefusesTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	var log bytes.Buffer
	sink := events.LogSink(&log)
	sink(events.Event{Seq: 1, Type: events.TaskReceived, Task: "a"})
	sink(events.Event{Seq: 2, Type: events.Truncated, Err: "events: 1 events evicted from bounded backlog"})
	sink(events.Event{Seq: 3, Type: events.TaskReceived, Task: "b"})
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := schedCmd([]string{"-listen", "127.0.0.1:0", "-event-log", path, "-resume-log"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "missing events") {
		t.Fatalf("sched -resume-log on a truncated log: err = %v, want the refusal", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, log.Bytes()) {
		t.Errorf("refused log was rewritten:\n%s", got)
	}
}
