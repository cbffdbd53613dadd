package proc_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/proc"
	"repro/internal/wire"
)

// unixAddrs returns n socket paths under the test's temp dir.
func unixAddrs(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("p%d.sock", i+1))
	}
	return addrs
}

// tcpAddrs returns n loopback listen specs with kernel-chosen ports.
func tcpAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// pingWorld assembles an n-party world over the given factory and runs
// a two-round ping/echo protocol, returning the delivery log (append
// order is the scheduler's delivery order — the determinism fingerprint),
// the final tick and the metrics snapshot.
func pingWorld(t *testing.T, n int, factory transport.Factory) ([]string, sim.Time, sim.MetricsSnapshot) {
	t.Helper()
	w, err := proto.NewWorldE(proto.WorldOpts{
		Cfg:       proto.Config{N: n, Ts: 1, Ta: 1},
		Network:   proto.Sync,
		Seed:      42,
		Transport: factory,
	})
	if err != nil {
		t.Fatalf("NewWorldE: %v", err)
	}
	defer w.Close()
	var log []string
	for i := 1; i <= n; i++ {
		rt := w.Runtimes[i]
		rt.Register("ping", proto.HandlerFunc(func(from int, msgType uint8, body []byte) {
			log = append(log, fmt.Sprintf("t%d p%d<-%d ty%d %q", rt.Now(), rt.ID(), from, msgType, body))
			if msgType == 0 {
				rt.Send("ping", from, 1, append([]byte("echo:"), body...))
			}
		}))
	}
	for to := 1; to <= n; to++ {
		w.Runtimes[1].Send("ping", to, 0, []byte{byte(to)})
	}
	w.RunToQuiescence()
	if err := w.TransportErr(); err != nil {
		t.Fatalf("transport fault: %v", err)
	}
	return log, w.Sched.Now(), w.Metrics().Snapshot()
}

// TestDifferentialPing runs the same seeded protocol over the in-memory
// simulator, unix sockets and TCP loopback; delivery order, final tick
// and metrics must be identical.
func TestDifferentialPing(t *testing.T) {
	const n = 5
	refLog, refTick, refMetrics := pingWorld(t, n, nil)
	if len(refLog) == 0 {
		t.Fatal("reference run delivered nothing")
	}
	backends := map[string]transport.Factory{
		"unix": proc.New(proc.Options{Kind: "unix", Addrs: unixAddrs(t, n)}),
		"tcp":  proc.New(proc.Options{Kind: "tcp", Addrs: tcpAddrs(n)}),
	}
	for name, factory := range backends {
		log, tick, metrics := pingWorld(t, n, factory)
		if tick != refTick {
			t.Errorf("%s: final tick %d, sim %d", name, tick, refTick)
		}
		if len(log) != len(refLog) {
			t.Fatalf("%s: %d deliveries, sim %d", name, len(log), len(refLog))
		}
		for i := range log {
			if log[i] != refLog[i] {
				t.Errorf("%s: delivery %d = %q, sim %q", name, i, log[i], refLog[i])
			}
		}
		if fmt.Sprintf("%+v", metrics) != fmt.Sprintf("%+v", refMetrics) {
			t.Errorf("%s: metrics diverge:\n%+v\nsim:\n%+v", name, metrics, refMetrics)
		}
	}
}

// TestWireStats checks that honest cross-party traffic physically
// crossed the sockets and self-sends stayed off the wire. Each round
// reads the counters straight after quiescence, when every sent frame
// has been read back, so the out and in pairs must agree exactly — a
// writer goroutine that counted only after its socket write returned
// could still lag the reader that had already counted the frame in.
func TestWireStats(t *testing.T) {
	const n, rounds = 5, 300
	factory := proc.New(proc.Options{Kind: "unix", Addrs: unixAddrs(t, n)})
	w, err := proto.NewWorldE(proto.WorldOpts{
		Cfg: proto.Config{N: n, Ts: 1, Ta: 0}, Network: proto.Sync, Seed: 7, Transport: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= n; i++ {
		w.Runtimes[i].Register("x", proto.HandlerFunc(func(int, uint8, []byte) {}))
	}
	for r := 1; r <= rounds; r++ {
		w.Runtimes[1+r%n].SendAll("x", 0, []byte("payload"))
		w.RunToQuiescence()
		st := transport.Meter(w.Net)
		// n-1 cross-party frames per round; the self-send is direct.
		if want := uint64(r * (n - 1)); st.FramesOut != want || st.FramesIn != want {
			t.Fatalf("round %d: frames out/in = %d/%d, want %d/%d", r, st.FramesOut, st.FramesIn, want, want)
		}
		if st.BytesOut == 0 || st.BytesOut != st.BytesIn {
			t.Fatalf("round %d: bytes out/in = %d/%d", r, st.BytesOut, st.BytesIn)
		}
	}
	if err := w.TransportErr(); err != nil {
		t.Fatalf("transport fault: %v", err)
	}
}

// watchdog fails the test if fn does not return within the deadline:
// transport faults must surface as typed errors, never hangs.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("run did not complete within watchdog deadline")
	}
}

// TestBringupAddressInUse: a listen address already bound elsewhere
// must fail bring-up with ErrBringup, not hang.
func TestBringupAddressInUse(t *testing.T) {
	addrs := tcpAddrs(5)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrs[1] = ln.Addr().String()
	factory := proc.New(proc.Options{Kind: "tcp", Addrs: addrs, IOTimeout: 2 * time.Second})
	watchdog(t, 10*time.Second, func() {
		_, err = proto.NewWorldE(proto.WorldOpts{
			Cfg: proto.Config{N: 5, Ts: 1, Ta: 0}, Network: proto.Sync, Seed: 1, Transport: factory,
		})
	})
	if !errors.Is(err, proc.ErrBringup) {
		t.Fatalf("err = %v, want ErrBringup", err)
	}
}

// TestBringupDialRefused: a peer that cannot be dialed must fail
// bring-up with ErrBringup.
func TestBringupDialRefused(t *testing.T) {
	// Grab an ephemeral port and release it: dialing it is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	factory := proc.New(proc.Options{
		Kind: "tcp", Addrs: tcpAddrs(5), IOTimeout: 2 * time.Second,
	}.WithDialOverride(2, dead))
	watchdog(t, 10*time.Second, func() {
		_, err = proto.NewWorldE(proto.WorldOpts{
			Cfg: proto.Config{N: 5, Ts: 1, Ta: 0}, Network: proto.Sync, Seed: 1, Transport: factory,
		})
	})
	if !errors.Is(err, proc.ErrBringup) {
		t.Fatalf("err = %v, want ErrBringup", err)
	}
}

// TestLargeBurstDoesNotWedge: a single-tick burst on one link far
// exceeding the kernel socket buffer plus the reader channel must
// drain cleanly. Send never blocks on a socket (frames queue for the
// link's writer goroutine), so a large burst cannot wedge the lockstep
// into a spurious write timeout — the failure mode large preprocessing
// batches over sockets used to hit.
func TestLargeBurstDoesNotWedge(t *testing.T) {
	const n, frames = 5, 2000
	factory := proc.New(proc.Options{
		Kind: "unix", Addrs: unixAddrs(t, n), IOTimeout: 2 * time.Second,
	})
	w, err := proto.NewWorldE(proto.WorldOpts{
		Cfg: proto.Config{N: n, Ts: 1, Ta: 0}, Network: proto.Sync, Seed: 11, Transport: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got int
	for i := 1; i <= n; i++ {
		w.Runtimes[i].Register("x", proto.HandlerFunc(func(int, uint8, []byte) { got++ }))
	}
	body := make([]byte, 8<<10)
	watchdog(t, 30*time.Second, func() {
		for k := 0; k < frames; k++ {
			w.Runtimes[1].Send("x", 2, 0, body)
		}
		w.RunToQuiescence()
	})
	if err := w.TransportErr(); err != nil {
		t.Fatalf("transport fault: %v", err)
	}
	if got != frames {
		t.Fatalf("delivered %d of %d burst messages", got, frames)
	}
	if st := transport.Meter(w.Net); st.FramesOut != frames || st.FramesIn != frames {
		t.Fatalf("frames out/in = %d/%d, want %d/%d", st.FramesOut, st.FramesIn, frames, frames)
	}
}

// buildFaultWorld assembles a 3-party world over unix sockets with a
// short IO timeout and returns it with its proc transport.
func buildFaultWorld(t *testing.T) (*proto.World, *proc.Transport) {
	t.Helper()
	factory := proc.New(proc.Options{
		Kind: "unix", Addrs: unixAddrs(t, 5), IOTimeout: 2 * time.Second,
	})
	w, err := proto.NewWorldE(proto.WorldOpts{
		Cfg: proto.Config{N: 5, Ts: 1, Ta: 0}, Network: proto.Sync, Seed: 9, Transport: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		w.Runtimes[i].Register("x", proto.HandlerFunc(func(int, uint8, []byte) {}))
	}
	return w, w.Net.(*proc.Transport)
}

// TestConnDropSurfacesTypedError: a severed connection must drain the
// run and surface ErrConnLost, not hang or panic.
func TestConnDropSurfacesTypedError(t *testing.T) {
	w, tr := buildFaultWorld(t)
	defer w.Close()
	if err := tr.CloseLink(1, 2); err != nil {
		t.Fatal(err)
	}
	watchdog(t, 20*time.Second, func() {
		w.Runtimes[1].SendAll("x", 0, []byte("hello"))
		w.RunToQuiescence()
	})
	if err := w.TransportErr(); !errors.Is(err, proc.ErrConnLost) {
		t.Fatalf("err = %v, want ErrConnLost", err)
	}
}

// TestFrameCorruptionSurfacesTypedError: garbage on the wire must
// surface ErrConnLost wrapping the codec's CRC error.
func TestFrameCorruptionSurfacesTypedError(t *testing.T) {
	w, tr := buildFaultWorld(t)
	defer w.Close()
	if err := tr.InjectGarbage(1, 2); err != nil {
		t.Fatal(err)
	}
	watchdog(t, 20*time.Second, func() {
		w.Runtimes[1].SendAll("x", 0, []byte("hello"))
		w.RunToQuiescence()
	})
	err := w.TransportErr()
	if !errors.Is(err, proc.ErrConnLost) {
		t.Fatalf("err = %v, want ErrConnLost", err)
	}
	if !errors.Is(err, wire.ErrFrameCRC) {
		t.Fatalf("err = %v, want wire.ErrFrameCRC in chain", err)
	}
}
