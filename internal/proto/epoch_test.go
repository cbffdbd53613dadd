package proto

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestEpochNamespaces: epochs are monotone and their namespaces keep
// the family label on top (so metrics aggregate per family).
func TestEpochNamespaces(t *testing.T) {
	w := NewWorld(WorldOpts{Cfg: Config{N: 5, Ts: 1, Ta: 1, Delta: 10, CoinRounds: 8}, Network: Sync, Seed: 1})
	e0 := w.BeginEpoch()
	e1 := w.BeginEpoch()
	if e0.Seq() != 0 || e1.Seq() != 1 || w.Epochs() != 2 {
		t.Fatalf("epoch sequence broken: %d, %d (epochs=%d)", e0.Seq(), e1.Seq(), w.Epochs())
	}
	if got := e1.Namespace("mpc"); got != "mpc/e1" {
		t.Fatalf("namespace %q, want mpc/e1", got)
	}
	if sim.TopLabel(e1.Namespace("mpc")+"/lay/1") != "mpc" {
		t.Fatal("epoch namespace changed the metrics family label")
	}
}

// TestDropPrefix: retiring an epoch removes its exact handlers,
// prefix factories and buffered traffic, and only them.
func TestDropPrefix(t *testing.T) {
	w := NewWorld(WorldOpts{Cfg: Config{N: 5, Ts: 1, Ta: 1, Delta: 10, CoinRounds: 8}, Network: Sync, Seed: 1})
	rt := w.Runtimes[1]
	noop := HandlerFunc(func(int, uint8, []byte) {})
	rt.Register("mpc/e0", noop)
	rt.Register("mpc/e0/in", noop)
	rt.Register("mpc/e1", noop)
	rt.Register("mpc/e10", noop) // shares the string prefix, not the path prefix
	rt.RegisterPrefix("mpc/e0/late/", func(string) Handler { return noop })
	rt.RegisterPrefix("mpc/e1/late/", func(string) Handler { return noop })
	// Buffered traffic for an unregistered epoch-0 instance.
	rt.Dispatch(sim.Envelope{From: 2, To: 1, Inst: "mpc/e0/lay/1", Type: 1, Body: []byte{1}})

	if got := rt.DropPrefix("mpc/e0"); got != 2 {
		t.Fatalf("dropped %d handlers, want 2", got)
	}
	if rt.Registered("mpc/e0") || rt.Registered("mpc/e0/in") {
		t.Fatal("epoch-0 handlers survived DropPrefix")
	}
	if !rt.Registered("mpc/e1") || !rt.Registered("mpc/e10") {
		t.Fatal("DropPrefix removed foreign instances")
	}
	if got := rt.Retained(); got.Factories != 1 || got.Buffered != 0 {
		t.Fatalf("after the drop %+v, want epoch 1's factory only and no buffer", got)
	}
	// Re-registering the dropped path must not panic (the duplicate
	// guard is what DropPrefix exists to clear) and must not replay the
	// dropped buffer.
	seen := 0
	rt.Register("mpc/e0/lay/1", HandlerFunc(func(int, uint8, []byte) { seen++ }))
	if seen != 0 {
		t.Fatalf("dropped buffer replayed %d messages", seen)
	}
}

// TestRetiredNamespaceTombstone: traffic for a retired namespace is
// discarded — neither buffered nor handed to a factory — and the
// tombstone holds only the ids retired above the lowest live one.
func TestRetiredNamespaceTombstone(t *testing.T) {
	w := NewWorld(WorldOpts{Cfg: Config{N: 5, Ts: 1, Ta: 1, Delta: 10, CoinRounds: 8}, Network: Sync, Seed: 1})
	rt := w.Runtimes[1]
	noop := HandlerFunc(func(int, uint8, []byte) {})
	made := 0
	factory := func(string) Handler { made++; return noop }
	for k := 0; k < 6; k++ {
		rt.Register(fmt.Sprintf("mpc/e%d", k), noop)
	}
	rt.RegisterPrefix("pool/b0/", factory)

	// Epochs retire out of order, as pipelined epochs do: 2 and 3 wait
	// above the watermark until 0 and 1 are gone.
	for _, ns := range []string{"mpc/e2", "mpc/e3"} {
		rt.DropPrefix(ns)
	}
	if got := rt.Retained().Tombstone; got != 2 {
		t.Fatalf("tombstone holds %d ids with epochs 0 and 1 live, want 2", got)
	}
	rt.DropPrefix("mpc/e0")
	rt.DropPrefix("mpc/e1")
	if got := rt.Retained().Tombstone; got != 0 {
		t.Fatalf("tombstone holds %d ids once the watermark passed them, want 0", got)
	}
	rt.DropPrefix("pool/b0")
	for k := 0; k < 100; k++ {
		ns := fmt.Sprintf("pool/b%d", k+1)
		rt.Register(Join(ns, "x"), noop)
		rt.DropPrefix(ns)
	}
	if got := rt.Retained(); got.Tombstone != 0 || got.Handlers != 2 || got.Factories != 0 {
		t.Fatalf("after 101 sequential batches %+v, want epochs 4 and 5 live and an empty tombstone", got)
	}

	for _, inst := range []string{"mpc/e1/lay/1", "mpc/e3", "pool/b0/x", "pool/b57/y"} {
		rt.Dispatch(sim.Envelope{From: 2, To: 1, Inst: inst, Type: 1, Body: []byte{1}})
	}
	if made != 0 || rt.Retained().Buffered != 0 {
		t.Fatalf("stragglers re-instantiated %d times, %d paths buffered", made, rt.Retained().Buffered)
	}
	// Live and future namespaces are not covered.
	for _, inst := range []string{"mpc/e4/in", "mpc/e6/in", "pool/b101/x"} {
		rt.Dispatch(sim.Envelope{From: 2, To: 1, Inst: inst, Type: 1, Body: []byte{1}})
	}
	if got := rt.Retained().Buffered; got != 3 {
		t.Fatalf("%d paths buffered for live and future namespaces, want 3", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("DropPrefix of an unnumbered namespace should panic")
		}
	}()
	rt.DropPrefix("mpc")
}
