package cluster

import "sort"

// Ledger accumulates node-hour spending per machine, mirroring the paper's
// cost reporting.
type Ledger struct {
	entries map[string]float64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{entries: make(map[string]float64)} }

// Charge adds node-hours to a machine's account.
func (l *Ledger) Charge(machine string, nodeHours float64) {
	l.entries[machine] += nodeHours
}

// Total returns the node-hours charged to a machine.
func (l *Ledger) Total(machine string) float64 { return l.entries[machine] }

// Machines returns the charged machine names in sorted order.
func (l *Ledger) Machines() []string {
	out := make([]string, 0, len(l.entries))
	for m := range l.entries {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
