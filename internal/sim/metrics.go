package sim

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Counts aggregates message and byte counters.
type Counts struct {
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
}

func (c *Counts) add(e Envelope) {
	c.Messages++
	c.Bytes += uint64(e.WireSize())
}

// IsZero reports whether the counter recorded nothing.
func (c Counts) IsZero() bool { return c.Messages == 0 && c.Bytes == 0 }

// Metrics records communication, separated into honest-origin and
// corrupt-origin traffic (the paper's complexity statements count bits
// communicated by honest parties) and broken down by protocol family
// (first instance-path component).
type Metrics struct {
	n        int
	Honest   Counts
	Corrupt  Counts
	ByFamily map[string]*Counts // honest-origin only
	// last is the virtual time of the most recent recorded send.
	last Time
	// lastLabel/lastCounts memoise the most recent family lookup:
	// traffic arrives in long same-family bursts (SendAll loops), so a
	// string compare usually replaces the map probe.
	lastLabel  string
	lastCounts *Counts
	// trackers attribute honest-origin traffic to instance-path
	// prefixes: a tracker on "mpc/e7" counts exactly the sends under
	// that namespace no matter what else is in flight, which is how the
	// engine attributes every epoch's and every pool fill's traffic. Empty when nothing is tracked, so
	// the hot path pays one len() check.
	trackers []*PrefixCounter
}

// PrefixCounter accumulates the honest-origin traffic of every send
// whose instance path is the tracked prefix or lies under it. Obtain
// one with Track, read Counts at any time, detach with Untrack.
type PrefixCounter struct {
	// Counts is the live tally; safe to read between scheduler steps.
	Counts
	exact string // the prefix itself ("mpc/e7")
	under string // prefix + "/" (descendants)
}

// Prefix returns the tracked instance-path prefix.
func (pc *PrefixCounter) Prefix() string { return pc.exact }

// Track starts attributing honest-origin traffic under prefix (the
// path itself and everything below it) to a fresh counter. Multiple
// trackers may be live at once — overlapping epochs each track their
// own namespace; a send under several tracked prefixes counts in each.
func (m *Metrics) Track(prefix string) *PrefixCounter {
	pc := &PrefixCounter{exact: prefix, under: prefix + "/"}
	m.trackers = append(m.trackers, pc)
	return pc
}

// Untrack detaches a tracker; its Counts stop advancing and keep their
// final values. Untracking twice is a no-op.
func (m *Metrics) Untrack(pc *PrefixCounter) {
	for i, t := range m.trackers {
		if t == pc {
			m.trackers = append(m.trackers[:i], m.trackers[i+1:]...)
			return
		}
	}
}

// NewMetrics returns empty metrics for n parties.
func NewMetrics(n int) *Metrics {
	return &Metrics{n: n, ByFamily: make(map[string]*Counts)}
}

// Record accounts one sent envelope at virtual time now.
func (m *Metrics) Record(e Envelope, fromCorrupt bool, now Time) {
	if now > m.last {
		m.last = now
	}
	if fromCorrupt {
		m.Corrupt.add(e)
		return
	}
	m.Honest.add(e)
	if len(m.trackers) > 0 {
		for _, pc := range m.trackers {
			if e.Inst == pc.exact || strings.HasPrefix(e.Inst, pc.under) {
				pc.add(e)
			}
		}
	}
	label := TopLabel(e.Inst)
	if label == m.lastLabel && m.lastCounts != nil {
		m.lastCounts.add(e)
		return
	}
	c := m.ByFamily[label]
	if c == nil {
		c = &Counts{}
		m.ByFamily[label] = c
	}
	m.lastLabel, m.lastCounts = label, c
	c.add(e)
}

// HonestBytes returns the total bytes sent by honest parties.
func (m *Metrics) HonestBytes() uint64 { return m.Honest.Bytes }

// HonestMessages returns the total messages sent by honest parties.
func (m *Metrics) HonestMessages() uint64 { return m.Honest.Messages }

// LastTick returns the virtual time of the most recent recorded send.
func (m *Metrics) LastTick() Time { return m.last }

// MetricsSnapshot is a point-in-time copy of a Metrics: plain values
// with stable JSON names, safe to retain while the live counter keeps
// advancing. Checkpoints persist it and Restore reloads it.
type MetricsSnapshot struct {
	N        int               `json:"n"`
	LastTick int64             `json:"lastTick"`
	Honest   Counts            `json:"honest"`
	Corrupt  Counts            `json:"corrupt"`
	ByFamily map[string]Counts `json:"byFamily,omitempty"`
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		N:        m.n,
		LastTick: int64(m.last),
		Honest:   m.Honest,
		Corrupt:  m.Corrupt,
	}
	if len(m.ByFamily) > 0 {
		s.ByFamily = make(map[string]Counts, len(m.ByFamily))
		for k, c := range m.ByFamily {
			s.ByFamily[k] = *c
		}
	}
	return s
}

// Restore overwrites the live counters with a snapshot's values, the
// inverse of Snapshot — how a restored World resumes metric accounting
// exactly where the checkpointed run left off. The family memo is
// dropped; it repopulates on the next Record.
func (m *Metrics) Restore(s MetricsSnapshot) error {
	if s.N != m.n {
		return fmt.Errorf("sim: metrics snapshot is for n=%d parties, live counter has n=%d", s.N, m.n)
	}
	if s.LastTick < 0 {
		return fmt.Errorf("sim: metrics snapshot with negative last tick %d", s.LastTick)
	}
	m.Honest = s.Honest
	m.Corrupt = s.Corrupt
	m.last = Time(s.LastTick)
	m.lastLabel, m.lastCounts = "", nil
	m.ByFamily = make(map[string]*Counts, len(s.ByFamily))
	for k, c := range s.ByFamily {
		cc := c
		m.ByFamily[k] = &cc
	}
	return nil
}

// MarshalJSON renders the metrics as their snapshot: a stable
// machine-readable form with the family breakdown included, so CLI
// consumers do not re-derive it from private state.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

// String renders the run context (parties, last send tick) and a
// sorted per-family breakdown.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d parties, last send at tick %d\n", m.n, m.last)
	fmt.Fprintf(&b, "honest: %d msgs, %d bytes; corrupt: %d msgs, %d bytes\n",
		m.Honest.Messages, m.Honest.Bytes, m.Corrupt.Messages, m.Corrupt.Bytes)
	keys := make([]string, 0, len(m.ByFamily))
	for k := range m.ByFamily {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := m.ByFamily[k]
		fmt.Fprintf(&b, "  %-12s %8d msgs %12d bytes\n", k, c.Messages, c.Bytes)
	}
	return b.String()
}
