package proto

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
)

// Namespace retirement. A long-lived World hosts an unbounded sequence
// of numbered namespaces — session epochs "mpc/e<k>", pool batches
// "pool/b<k>" — each of which finishes and is never reused. DropPrefix
// retires one: its handlers, prefix factories and buffered messages go,
// and a tombstone makes the runtime discard late traffic for it instead
// of re-buffering it or handing it to a factory.
//
// The tombstone stays O(live namespaces), not O(history). A numbered
// namespace splits into a family ("mpc/e") and an id (k), and each
// family keeps a low watermark — every id below it is retired — plus
// the few retired ids above it. Ids of a family are allocated in
// increasing order and a live namespace keeps handlers on every runtime
// until it retires, so when id k retires the watermark moves up to the
// lowest id still holding state here, or past the highest retired id
// when none does. Ids retired out of order (a pipelined epoch finishing
// before an older sibling) wait above the watermark until it passes
// them.

// Retained is the protocol state one runtime holds: what a long-lived
// World must keep bounded.
type Retained struct {
	// Handlers counts exact instance handlers, Factories prefix
	// factories, Buffered the instance paths holding early messages.
	Handlers  int `json:"handlers"`
	Factories int `json:"factories"`
	Buffered  int `json:"buffered"`
	// Tombstone counts the retired ids held above their family's
	// watermark.
	Tombstone int `json:"tombstone"`
}

// Retained reports this runtime's retained protocol state.
func (rt *Runtime) Retained() Retained {
	r := Retained{
		Handlers:  len(rt.exact),
		Factories: len(rt.prefixes),
		Buffered:  len(rt.buffer),
	}
	for _, f := range rt.tomb {
		r.Tombstone += len(f.above)
	}
	return r
}

// DropPrefix retires the numbered namespace prefix ("mpc/e3",
// "pool/b0"): it removes every exact handler, prefix factory and
// buffered message whose instance path is prefix or lies under
// prefix+"/", and records prefix in the tombstone, so traffic that
// still arrives for it is discarded (Dispatch). It returns the number
// of exact handlers dropped. A namespace without a trailing id panics:
// the tombstone could not bound it.
func (rt *Runtime) DropPrefix(prefix string) int {
	base, id, ok := splitSeq(prefix)
	if !ok {
		panic(fmt.Sprintf("proto: party %d: DropPrefix(%q): not a numbered namespace", rt.id, prefix))
	}
	fam := rt.tomb.family(base)
	// minLive is the lowest id of the family still holding state on
	// this runtime (-1: none). Counting a buffered future namespace as
	// live only holds the watermark back, which is safe. One id parse
	// per entry decides both membership and liveness.
	minLive := -1
	under := func(inst string) bool {
		k, ok := fam.id(inst)
		if ok && k != id && (minLive < 0 || k < minLive) {
			minLive = k
		}
		return ok && k == id
	}
	dropped := 0
	for inst := range rt.exact {
		if under(inst) {
			delete(rt.exact, inst)
			dropped++
		}
	}
	rt.prefixes = slices.DeleteFunc(rt.prefixes, func(pe prefixEntry) bool { return under(pe.prefix) })
	for inst := range rt.buffer {
		if under(inst) {
			delete(rt.buffer, inst)
		}
	}
	fam.retire(id, minLive)
	if rt.tracer != nil {
		rt.tracer.Emit(obs.Event{
			Kind: obs.KInstanceDrop, Tick: int64(rt.sched.Now()),
			Party: rt.id, Inst: prefix, A: int64(dropped),
		})
	}
	return dropped
}

// tombstone records one runtime's retired namespaces, one entry per
// family.
type tombstone []*retiredFamily

// retiredFamily is the tombstone of one numbered namespace family,
// keyed by the part before the id ("mpc/e" for "mpc/e<k>").
type retiredFamily struct {
	base  string
	low   int              // every id below low is retired
	above map[int]struct{} // retired ids at or above low
}

// covers reports whether inst is, or lies under, a retired namespace.
func (t tombstone) covers(inst string) bool {
	for _, f := range t {
		if k, ok := f.id(inst); ok {
			if _, out := f.above[k]; k < f.low || out {
				return true
			}
		}
	}
	return false
}

// family returns the tombstone of base, creating it on first use.
func (t *tombstone) family(base string) *retiredFamily {
	for _, f := range *t {
		if f.base == base {
			return f
		}
	}
	f := &retiredFamily{base: base, above: make(map[int]struct{})}
	*t = append(*t, f)
	return f
}

// id returns the family id of the namespace inst is or lies under.
func (f *retiredFamily) id(inst string) (int, bool) {
	if !strings.HasPrefix(inst, f.base) {
		return 0, false
	}
	rest := inst[len(f.base):]
	end := 0
	for end < len(rest) && end < 10 && rest[end] != '/' {
		end++
	}
	return parseSeq(rest[:end])
}

// retire records id as retired, given the lowest id of the family still
// live on this runtime (-1: none), and moves the watermark.
func (f *retiredFamily) retire(id, minLive int) {
	if id >= f.low {
		f.above[id] = struct{}{}
	}
	if minLive < 0 {
		// Nothing of the family is live: everything up to the highest
		// retired id has finished.
		minLive = f.low
		for k := range f.above {
			minLive = max(minLive, k+1)
		}
	}
	f.low = max(f.low, minLive)
	for k := range f.above {
		if k < f.low {
			delete(f.above, k)
		}
	}
}

// splitSeq splits a numbered namespace such as "mpc/e12" into its
// family base "mpc/e" and id 12; ok is false when ns does not end in an
// id after a non-empty base.
func splitSeq(ns string) (base string, id int, ok bool) {
	i := len(ns)
	for i > 0 && ns[i-1] >= '0' && ns[i-1] <= '9' {
		i--
	}
	if i == 0 {
		return "", 0, false
	}
	id, ok = parseSeq(ns[i:])
	return ns[:i], id, ok
}

// parseSeq parses a namespace id: a canonical decimal (no sign, no
// leading zero) of at most nine digits.
func parseSeq(s string) (int, bool) {
	if s == "" || len(s) > 9 || (s[0] == '0' && len(s) > 1) {
		return 0, false
	}
	id := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int(c-'0')
	}
	return id, true
}
