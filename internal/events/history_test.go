package events

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// checkWindow checks one hub against the full stream it was fed: Snapshot
// is the last min(n, limit) events, and a cursor subscribed now reads the
// Truncated marker (when anything was evicted) and then that window.
func checkWindow(t *testing.T, h *Hub, all []Event, limit int) {
	t.Helper()
	lo := 0
	if limit > 0 && len(all) > limit {
		lo = len(all) - limit
	}
	want := all[lo:]
	snap := h.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("Snapshot holds %d events, want %d", len(snap), len(want))
	}
	for i := range want {
		if !sameEvent(snap[i], want[i]) {
			t.Fatalf("Snapshot[%d] = %+v, want %+v", i, snap[i], want[i])
		}
	}
	if len(want) == 0 {
		return // a cursor would block: nothing to read
	}
	cur := h.Subscribe()
	if lo > 0 {
		m, _ := cur.Next()
		wantErr := fmt.Sprintf("events: %d events evicted from bounded backlog", lo)
		if m.Type != Truncated || m.Seq != uint64(lo) || m.TimeNS != all[lo-1].TimeNS || m.Err != wantErr {
			t.Fatalf("late cursor's first event = %+v, want the marker for %d evicted events at t=%d", m, lo, all[lo-1].TimeNS)
		}
	}
	for i := range want {
		if e, _ := cur.Next(); !sameEvent(e, want[i]) {
			t.Fatalf("late cursor's event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestHistoryBlockBoundaries holds the block store to the plain model of
// the window — the last limit events of the stream — at limits and stream
// lengths on either side of a block edge: Snapshot, a late cursor with
// its Truncated marker, a cursor that falls behind while events flow, and
// Restore of the same stream into a fresh bounded hub.
func TestHistoryBlockBoundaries(t *testing.T) {
	lengths := []int{1, blockLen - 1, blockLen, blockLen + 1, 2 * blockLen, 3*blockLen + 6,
		3*blockLen + 7, 3*blockLen + 8, 4 * blockLen, 5*blockLen + 1}
	for _, limit := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 3*blockLen + 7} {
		t.Run(fmt.Sprintf("limit%d", limit), func(t *testing.T) {
			h := NewHub()
			h.SetLimit(limit)
			var all []Event
			h.AddSink(func(e Event) { all = append(all, e) })
			// slow reads one event per checkpoint, so it is overtaken by
			// eviction at the small limits and never at the large ones.
			slow, next := h.Subscribe(), uint64(1)
			for i, n := range lengths {
				for len(all) < n {
					h.Emit(Event{Type: TaskReceived, Task: taskName(len(all)), Attempt: len(all)})
				}
				checkWindow(t, h, all, limit)

				first := uint64(1)
				if limit > 0 && n > limit {
					first = uint64(n - limit + 1)
				}
				e, _ := slow.Next()
				if next < first {
					if e.Type != Truncated || e.Seq != first-1 {
						t.Fatalf("at %d events: behind cursor read %+v, want a marker at seq %d", n, e, first-1)
					}
					next = first
					e, _ = slow.Next()
				}
				if e.Seq != next || e.Type != TaskReceived {
					t.Fatalf("at %d events: behind cursor read %+v, want seq %d", n, e, next)
				}
				next++

				if i%3 == 0 || n%blockLen == 0 {
					r := NewHub()
					r.SetLimit(limit)
					if err := r.Restore(all); err != nil {
						t.Fatal(err)
					}
					checkWindow(t, r, all, limit)
				}
			}
		})
	}
}

// TestHistoryReusesEvictedBlocks: a bounded hub's window slides over a
// fixed set of blocks, and a released block holds nothing of the events
// it held.
func TestHistoryReusesEvictedBlocks(t *testing.T) {
	h := NewHub()
	h.SetLimit(blockLen + 1)
	for i := 0; i < 10*blockLen; i++ {
		h.Emit(Event{Type: TaskReceived, Task: taskName(i)})
		if got := len(h.hist.blocks); got > 3 {
			t.Fatalf("after %d events the window spans %d blocks, want at most 3", i+1, got)
		}
	}
	if h.hist.spare == nil {
		t.Fatal("no released block was kept for reuse")
	}
	for i, e := range h.hist.spare {
		if !sameEvent(e, Event{}) {
			t.Fatalf("released block's slot %d still holds %+v", i, e)
		}
	}
}

// TestBoundedHubEmitAllocatesNothing: once its window has filled, a
// bounded hub's Emit allocates nothing; an unbounded hub allocates at
// most one block per blockLen events, and about a block's bytes.
func TestBoundedHubEmitAllocatesNothing(t *testing.T) {
	// emitBlock emits a block's worth of events, so that one block
	// allocated anywhere in it counts as one allocation per run.
	emitBlock := func(h *Hub) func() {
		return func() {
			for i := 0; i < blockLen; i++ {
				h.Emit(Event{Type: TaskDone, Task: "t", Worker: "w"})
			}
		}
	}
	h := NewHub()
	h.SetLimit(4096)
	for i := 0; i < 3*4096; i++ {
		h.Emit(Event{Type: TaskReceived, Task: "warm"})
	}
	if n := testing.AllocsPerRun(16, emitBlock(h)); n != 0 {
		t.Errorf("bounded hub allocates %v times per %d events, want 0", n, blockLen)
	}

	u := NewHub()
	// AllocsPerRun truncates the mean: the list of blocks growing now and
	// then does not lift it past one.
	if n := testing.AllocsPerRun(32, emitBlock(u)); n > 1 {
		t.Errorf("unbounded hub allocates %v times per %d events, want at most one block", n, blockLen)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const blocks = 32
	for i := 0; i < blocks; i++ {
		emitBlock(u)()
	}
	runtime.ReadMemStats(&after)
	block := float64(blockLen) * float64(unsafe.Sizeof(Event{}))
	if per := float64(after.TotalAlloc-before.TotalAlloc) / blocks; per > 1.1*block {
		t.Errorf("unbounded hub allocates %.0f B per %d events, want about one block (%.0f B)", per, blockLen, block)
	}
}

// BenchmarkHubEmit is Hub.Emit, 65,536 events an op: with no sink into a
// fresh unbounded hub (the default `sched`, whose history grows for the
// whole campaign), and into one hub bounded to 4,096 events whose window
// has long filled (`sched -event-backlog 4096`); and into a fresh
// unbounded hub an async sink follows (`sched -event-log`), its Close
// inside the op, so the op ends only once the follower has handed every
// event on. allocs/op is gated exactly: unbounded, the 64 blocks, the
// block list's 7 doublings and the hub itself; bounded, nothing.
func BenchmarkHubEmit(b *testing.B) {
	const perOp = 1 << 16
	emit := func(h *Hub) {
		for i := 0; i < perOp; i++ {
			h.Emit(Event{Type: TaskDone, Task: "t0001", Worker: "w001"})
		}
	}
	run := func(b *testing.B, hub func() *Hub) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			emit(hub())
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perOp), "ns/event")
	}
	b.Run("unbounded", func(b *testing.B) {
		// The collector runs between ops, off the clock, and not during
		// one: what the runtime allocates in a collection would otherwise
		// add one to three to allocs/op, depending on GOMAXPROCS.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		run(b, func() *Hub {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			return NewHub()
		})
	})
	b.Run("follower", func(b *testing.B) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// A first follower off the clock leaves a goroutine to reuse, so
		// the runtime's allocating one does not count at -benchtime 1x.
		warm := NewHub()
		warm.AddAsyncSink(func(Event) {}, 0)
		warm.Close()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			h := NewHub()
			h.AddAsyncSink(func(Event) {}, 0)
			emit(h)
			h.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perOp), "ns/event")
	})
	b.Run("bounded", func(b *testing.B) {
		h := NewHub()
		h.SetLimit(4096)
		emit(h)
		b.ResetTimer()
		run(b, func() *Hub { return h })
	})
}
