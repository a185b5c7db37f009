package flow

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// DefaultResultTimeout is the per-result progress deadline a new Client
// starts with: Map fails if no message arrives for this long. It exists so
// a wedged scheduler fails fast instead of hanging a CI -race job until
// the suite times out; it is generous enough that any live cluster —
// including one whose workers are still warming up — keeps renewing it
// with results.
const DefaultResultTimeout = 2 * time.Minute

// dialTimeout bounds connection establishment for clients and workers.
const dialTimeout = 10 * time.Second

// resultWriteTimeout bounds a worker's result send to the scheduler.
const resultWriteTimeout = 30 * time.Second

// Client is the driving script of the workflow (Section 3.3 step 3): it
// submits the full batch of tasks with a single Map call and streams back
// completion records, optionally appending per-task statistics to a CSV.
type Client struct {
	conn  net.Conn
	codec *binaryCodec

	// ResultTimeout is the progress deadline of Map: the longest Map waits
	// between consecutive scheduler messages before failing. Zero disables
	// the deadline. Set it before calling Map.
	ResultTimeout time.Duration

	// Campaign, when set before Map, names the multi-tenant namespace the
	// submission belongs to: it travels on the submit frame, the scheduler
	// stamps it onto every task that does not carry its own, and the
	// fair-share policy and admission quotas key on it.
	Campaign string

	mu     sync.Mutex
	closed bool
}

// DialClient connects a submitting client to the scheduler: the one dial
// path, covering plain addresses, scheduler files and retry budgets. Its
// wire hello waits to leave with Map's submit
// frame. The returned client must be closed.
func DialClient(opts DialOptions) (*Client, error) {
	conn, codec, err := dialPeer(opts, "client", nil)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, codec: codec, ResultTimeout: DefaultResultTimeout}, nil
}

// Map submits all tasks in one batch and blocks until every result has
// arrived, returning results in completion order (the dataflow order, not
// submission order). If observe is non-nil it is called once per result as
// completion records stream in — the hook the per-task processing-times
// telemetry (exec.TaskStats) is recorded through. observe runs on Map's
// goroutine and must not block.
func (c *Client) Map(tasks []Task, observe func(*Result)) ([]Result, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	// settled holds every submitted task ID, true once its result is in.
	// A duplicate or stray result frame (a retried task whose first
	// worker's ack raced its death, a buggy peer) must not count toward
	// completion — without this, one duplicate lets Map return "complete"
	// while another task's result never arrived. The first record per
	// task wins and is the one observed and returned.
	settled := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t.ID == "" {
			return nil, fmt.Errorf("flow: task with empty ID")
		}
		if _, dup := settled[t.ID]; dup {
			return nil, fmt.Errorf("flow: duplicate task ID %q", t.ID)
		}
		settled[t.ID] = false
	}

	if err := writeFrame(c.conn, c.codec, c.ResultTimeout, &message{Type: msgSubmit, Tasks: tasks, Campaign: c.Campaign}); err != nil {
		return nil, fmt.Errorf("flow: submit: %w", err)
	}

	results := make([]Result, 0, len(tasks))
	for len(results) < len(tasks) {
		// Renew the progress deadline before every read: any message from
		// the scheduler counts as progress, but a wedged scheduler (or a
		// dead cluster) surfaces as a timeout error instead of a hang.
		if c.ResultTimeout > 0 {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.ResultTimeout))
		}
		var m message
		if err := c.codec.Decode(&m); err != nil {
			return results, fmt.Errorf("flow: awaiting results (%d/%d done): %w",
				len(results), len(tasks), err)
		}
		if m.Type != msgResult {
			continue // the accepted ack: progress, nothing to record
		}
		for _, r := range m.Results {
			if done, ok := settled[r.TaskID]; !ok || done {
				continue
			}
			settled[r.TaskID] = true
			results = append(results, r)
			if observe != nil {
				observe(&results[len(results)-1])
			}
		}
	}
	_ = c.conn.SetReadDeadline(time.Time{})
	return results, nil
}

// Close disconnects the client.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.conn.Close()
}

// SortByWeightDescending orders tasks heaviest-first — the paper's greedy
// load-balance policy (targets sorted by descending sequence length so the
// long tasks start early and short tasks fill the tail). Ties break by ID
// for determinism.
func SortByWeightDescending(tasks []Task) {
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].Weight != tasks[j].Weight {
			return tasks[i].Weight > tasks[j].Weight
		}
		return tasks[i].ID < tasks[j].ID
	})
}
