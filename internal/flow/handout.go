package flow

import "time"

// A self-sizing scheduler (Scheduler.Batch == 0) fills each handout with
// about handoutBudget of estimated handler time, at most handoutMaxTasks
// tasks. A millisecond is some twenty times the per-frame cost it
// amortizes (encode, two syscalls, three goroutine wake-ups: tens of
// microseconds) and far below any imbalance a campaign can see; the task
// cap bounds what one worker death sends back through the retry budget.
const (
	handoutBudget   = time.Millisecond
	handoutMaxTasks = 64
)

// wave is the running mean handler time (Result.End − Result.Start) of
// the tasks of one submit frame — one kernel's wave in every caller in
// this tree, so one mean describes its tasks. Only the event loop
// touches it.
type wave struct {
	n     int64
	sumNS int64
}

func (w *wave) observe(d time.Duration) {
	w.n++
	w.sumNS += max(0, d.Nanoseconds())
}

// estimate is the handler time the scheduler expects of q. It has none —
// and the task must travel alone — until a task of q's wave has reported
// back, and for any redelivery: a task that was on a worker when it died
// may be what killed it, and must not take neighbours along again.
func (q *queued) estimate() (time.Duration, bool) {
	if q.attempts > 0 || q.wave == nil || q.wave.n == 0 {
		return 0, false
	}
	return time.Duration(q.wave.sumNS / q.wave.n), true
}

// fillHandout pops the tasks of one handout off queue and appends them to
// dst. A fixed batch ≥ 1 takes up to that many, whatever they are. Batch 0
// sizes the handout itself: the queue head always goes, and the task
// behind it joins while it has an estimate that fits what is left of
// handoutBudget — so minute-long targets go out one per worker, in the
// order the submitter sorted them, and microsecond kernels some twenty at
// a time.
func fillHandout(dst []queued, queue *taskQueue, batch int) []queued {
	head, ok := queue.Pop()
	if !ok {
		return dst
	}
	dst = append(dst, head)
	if batch >= 1 {
		for n := 1; n < batch; n++ {
			q, ok := queue.Pop()
			if !ok {
				break
			}
			dst = append(dst, q)
		}
		return dst
	}
	cost, ok := head.estimate()
	if !ok {
		return dst
	}
	left := handoutBudget - cost
	for n := 1; n < handoutMaxTasks; n++ {
		next := queue.Peek()
		if next == nil {
			break
		}
		cost, ok := next.estimate()
		if !ok || cost > left {
			break
		}
		left -= cost
		q, _ := queue.Pop()
		dst = append(dst, q)
	}
	return dst
}
