// Package proc implements the transport seam with parties as real
// goroutines exchanging CRC-framed, length-prefixed messages
// (wire.FrameWriter) over unix-domain or TCP-loopback sockets.
//
// The backend is a conservative lockstep design: the shared
// sim.Scheduler remains the sole time-and-order authority, exactly as
// in the in-memory simulator, and message bytes additionally make a
// physical round trip through the OS socket layer. Send executes the
// full simulator semantics synchronously in whichever goroutine calls
// it — interceptor for corrupt senders, metrics, policy delay drawn
// from the shared network RNG, KSend trace, typed delivery event — so
// the RNG consumption order, metrics, traces and the virtual schedule
// are bit-identical to the simulator's. Honest cross-party envelopes
// are also encoded as a CRC frame, tagged with the link's send
// sequence number, and queued for the link's writer goroutine to put
// on the (from -> to) socket — Send never blocks on a socket, so a
// preprocessing burst that momentarily exceeds the kernel's socket
// buffering cannot wedge the lockstep. When the scheduler later fires
// the delivery event, the coordinator awaits that exact frame off the
// wire (per-link reader goroutines assign arrival indices; socket FIFO
// makes arrival order equal send order), verifies it matches the
// scheduled envelope, and hands it to the addressee's party goroutine
// over an unbuffered rendezvous. The rendezvous is
// what makes the lockstep race-clean: while a party goroutine runs a
// handler the coordinator is blocked, so every access to the
// scheduler, RNG, metrics and link state is serialized with
// happens-before edges through the channels.
//
// Self-sends and corrupt senders' traffic (including interceptor
// output, whose envelopes the adversary may have rewritten) are
// delivered directly, tag 0, without touching a socket — exactly the
// traffic whose bytes the simulator's virtual accounting already
// treats specially.
//
// Faults never hang a run: socket writes carry deadlines, frame waits
// are bounded by IOTimeout, and the first fault latches a typed error
// (ErrBringup, ErrConnLost, ErrTimeout, ErrFrameMismatch) after which
// every remaining delivery is skipped, so the scheduler drains and the
// harness surfaces Transport.Err instead of a bogus protocol outcome.
package proc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Typed transport faults. Every failure mode of the backend wraps one
// of these sentinels, so harnesses can classify faults with errors.Is
// without parsing messages.
var (
	// ErrBringup marks a failure to assemble the socket mesh: a listen
	// address that cannot be bound, a peer that cannot be dialed, or a
	// broken handshake.
	ErrBringup = errors.New("proc: transport bring-up failed")
	// ErrConnLost marks a mid-run connection fault: a failed frame
	// write, a torn or corrupted read (wire.ErrFrameCRC is in its
	// chain), or a peer that vanished.
	ErrConnLost = errors.New("proc: connection lost")
	// ErrTimeout marks a scheduled delivery whose frame did not arrive
	// within IOTimeout.
	ErrTimeout = errors.New("proc: frame wait timed out")
	// ErrFrameMismatch marks a frame that arrived in sequence but does
	// not byte-match the envelope the scheduler delivered — the wire
	// and the virtual schedule disagree.
	ErrFrameMismatch = errors.New("proc: delivered frame does not match scheduled envelope")
)

// DefaultIOTimeout bounds socket writes and frame waits when Options
// leaves IOTimeout zero.
const DefaultIOTimeout = 10 * time.Second

// recvBuffer is the per-link channel capacity between a reader
// goroutine and the coordinator. A full channel parks the reader and
// lets the kernel socket buffer absorb the rest; no deadlock is
// possible because the coordinator never blocks on a socket (writes
// are queued to per-link writer goroutines) — it always progresses to
// the delivery that drains the link.
const recvBuffer = 256

// Options configures a socket-backed transport.
type Options struct {
	// Kind is the socket family: "unix" or "tcp".
	Kind string
	// Addrs holds one listen address per party, Addrs[i-1] for party i
	// (1-based). TCP addresses may use port 0; the bound port is
	// resolved before peers dial, and Addrs() reports the result.
	Addrs []string
	// IOTimeout bounds every socket write and every wait for a
	// scheduled frame; zero means DefaultIOTimeout.
	IOTimeout time.Duration

	// dialOverride reroutes the dial target for a party (test
	// instrumentation for bring-up fault coverage); keys are 1-based
	// party indices.
	dialOverride map[int]string
}

// WithDialOverride returns a copy of o that dials party i at addr
// instead of the party's resolved listen address. Test
// instrumentation: it forces the dial leg of bring-up to fail.
func (o Options) WithDialOverride(i int, addr string) Options {
	m := make(map[int]string, len(o.dialOverride)+1)
	for k, v := range o.dialOverride {
		m[k] = v
	}
	m[i] = addr
	o.dialOverride = m
	return o
}

// New returns a transport.Factory assembling a socket mesh with the
// given options when the world is built.
func New(opts Options) transport.Factory {
	return func(n int, sched *sim.Scheduler, policy sim.Policy, rng *rand.Rand) (transport.Transport, error) {
		return newTransport(n, sched, policy, rng, opts)
	}
}

// frameMsg is one decoded frame crossing from a reader goroutine to
// the coordinator, with its 1-based arrival index on the link.
type frameMsg struct {
	idx uint64
	env sim.Envelope
}

// link is one unidirectional (from -> to) connection. wconn is the
// sender-side endpoint, written only by the link's writer goroutine;
// rconn is the receiver-side endpoint, owned by the link's reader
// goroutine; sendSeq and stash are touched only under the lockstep
// (stash holds frames that arrived before their delivery event fired).
// outQ is the unbounded queue of encoded frames awaiting the writer —
// unbounded so that Send never blocks, which is what makes the
// lockstep deadlock-free under arbitrarily large send bursts; outBell
// is its 1-buffered doorbell.
type link struct {
	wconn   net.Conn
	rconn   net.Conn
	sendSeq uint64
	recv    chan frameMsg
	stash   map[uint64]sim.Envelope

	outMu   sync.Mutex
	outQ    [][]byte
	outBell chan struct{}
}

// party is one party's goroutine rendezvous: the coordinator pushes a
// delivered envelope on cmds and blocks on done until the handler
// returns.
type party struct {
	cmds chan sim.Envelope
	done chan struct{}
}

// Transport is the socket-backed transport backend. It implements
// transport.Transport and transport.WireMeter.
type Transport struct {
	n         int
	sched     *sim.Scheduler
	policy    sim.Policy
	rng       *rand.Rand
	ioTimeout time.Duration

	parties     []sim.Dispatcher // 1-based
	corrupt     map[int]bool
	interceptor sim.Interceptor
	metrics     *sim.Metrics
	tracer      obs.Tracer

	kind      string
	addrs     []string // resolved listen addresses, 1-based at [i-1]
	listeners []net.Listener
	links     [][]*link // [from][to]; nil on and outside the mesh
	procs     []*party  // 1-based

	framesOut atomic.Uint64
	bytesOut  atomic.Uint64
	framesIn  atomic.Uint64
	bytesIn   atomic.Uint64

	closed    atomic.Bool
	closedCh  chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	errMu    sync.Mutex
	err      error
	failCh   chan struct{}
	failOnce sync.Once
}

func newTransport(n int, sched *sim.Scheduler, policy sim.Policy, rng *rand.Rand, opts Options) (*Transport, error) {
	if opts.Kind != "unix" && opts.Kind != "tcp" {
		return nil, fmt.Errorf("%w: unknown socket kind %q", ErrBringup, opts.Kind)
	}
	if len(opts.Addrs) != n {
		return nil, fmt.Errorf("%w: %d addresses for %d parties", ErrBringup, len(opts.Addrs), n)
	}
	timeout := opts.IOTimeout
	if timeout <= 0 {
		timeout = DefaultIOTimeout
	}
	t := &Transport{
		n:         n,
		sched:     sched,
		policy:    policy,
		rng:       rng,
		ioTimeout: timeout,
		parties:   make([]sim.Dispatcher, n+1),
		corrupt:   make(map[int]bool),
		metrics:   sim.NewMetrics(n),
		kind:      opts.Kind,
		addrs:     make([]string, n),
		listeners: make([]net.Listener, n+1),
		links:     make([][]*link, n+1),
		procs:     make([]*party, n+1),
		closedCh:  make(chan struct{}),
		failCh:    make(chan struct{}),
	}
	for from := 1; from <= n; from++ {
		t.links[from] = make([]*link, n+1)
		for to := 1; to <= n; to++ {
			if from == to {
				continue
			}
			t.links[from][to] = &link{
				recv:    make(chan frameMsg, recvBuffer),
				stash:   make(map[uint64]sim.Envelope),
				outBell: make(chan struct{}, 1),
			}
		}
	}
	if err := t.bringup(opts); err != nil {
		t.Close()
		return nil, err
	}
	for i := 1; i <= n; i++ {
		p := &party{cmds: make(chan sim.Envelope), done: make(chan struct{})}
		t.procs[i] = p
		t.wg.Add(1)
		go t.partyLoop(p)
	}
	for from := 1; from <= n; from++ {
		for to := 1; to <= n; to++ {
			if l := t.links[from][to]; l != nil {
				t.wg.Add(2)
				go t.readLoop(from, to, l)
				go t.writeLoop(from, to, l)
			}
		}
	}
	return t, nil
}

// bringup assembles the n(n-1) unidirectional connection mesh: every
// party listens, every party dials every peer, and each dialer opens
// the connection with a 4-byte big-endian hello naming its own index
// so the acceptor can place the conn on the right link.
func (t *Transport) bringup(opts Options) error {
	for i := 1; i <= t.n; i++ {
		ln, err := net.Listen(t.kind, opts.Addrs[i-1])
		if err != nil {
			return fmt.Errorf("%w: listen party %d on %q: %v", ErrBringup, i, opts.Addrs[i-1], err)
		}
		t.listeners[i] = ln
		t.addrs[i-1] = ln.Addr().String()
	}
	deadline := time.Now().Add(t.ioTimeout)
	acceptErrs := make([]error, t.n+1)
	var accepts sync.WaitGroup
	for i := 1; i <= t.n; i++ {
		accepts.Add(1)
		go func(to int) {
			defer accepts.Done()
			acceptErrs[to] = t.acceptPeers(to, deadline)
		}(i)
	}
	var dialErr error
	for from := 1; from <= t.n && dialErr == nil; from++ {
		for to := 1; to <= t.n && dialErr == nil; to++ {
			if from == to {
				continue
			}
			dialErr = t.dialPeer(from, to, opts, deadline)
		}
	}
	if dialErr != nil {
		// Unblock the accept goroutines before reporting.
		for i := 1; i <= t.n; i++ {
			t.listeners[i].Close()
		}
	}
	accepts.Wait()
	for i := 1; i <= t.n; i++ {
		t.listeners[i].Close()
	}
	if dialErr != nil {
		return dialErr
	}
	for i := 1; i <= t.n; i++ {
		if acceptErrs[i] != nil {
			return acceptErrs[i]
		}
	}
	return nil
}

// acceptPeers accepts party to's n-1 inbound connections and places
// each on its (from -> to) link after reading the dialer's hello.
func (t *Transport) acceptPeers(to int, deadline time.Time) error {
	ln := t.listeners[to]
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(deadline)
	}
	for k := 0; k < t.n-1; k++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("%w: accept for party %d: %v", ErrBringup, to, err)
		}
		conn.SetReadDeadline(deadline)
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			return fmt.Errorf("%w: hello for party %d: %v", ErrBringup, to, err)
		}
		conn.SetReadDeadline(time.Time{})
		from := int(binary.BigEndian.Uint32(hello[:]))
		if from < 1 || from > t.n || from == to {
			conn.Close()
			return fmt.Errorf("%w: party %d accepted hello from invalid party %d", ErrBringup, to, from)
		}
		l := t.links[from][to]
		if l.rconn != nil {
			conn.Close()
			return fmt.Errorf("%w: duplicate connection %d -> %d", ErrBringup, from, to)
		}
		l.rconn = conn
	}
	return nil
}

// dialPeer opens the (from -> to) sender-side connection.
func (t *Transport) dialPeer(from, to int, opts Options, deadline time.Time) error {
	addr := t.addrs[to-1]
	if o, ok := opts.dialOverride[to]; ok {
		addr = o
	}
	conn, err := net.DialTimeout(t.kind, addr, time.Until(deadline))
	if err != nil {
		return fmt.Errorf("%w: dial party %d at %q from party %d: %v", ErrBringup, to, addr, from, err)
	}
	conn.SetWriteDeadline(deadline)
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(from))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return fmt.Errorf("%w: hello %d -> %d: %v", ErrBringup, from, to, err)
	}
	conn.SetWriteDeadline(time.Time{})
	t.links[from][to].wconn = conn
	return nil
}

// partyLoop is one party's goroutine: it dispatches each delivered
// envelope into the party's runtime and releases the coordinator. The
// handler may itself call Send — safe, because the coordinator is
// blocked on done for the duration, so the lockstep invariant holds.
func (t *Transport) partyLoop(p *party) {
	defer t.wg.Done()
	for env := range p.cmds {
		if d := t.parties[env.To]; d != nil {
			d.Dispatch(env)
		}
		p.done <- struct{}{}
	}
}

// readLoop drains the (from -> to) receiver endpoint, tagging frames
// with arrival indices (socket FIFO makes arrival order equal send
// order, so index k is the k-th frame sent on the link).
func (t *Transport) readLoop(from, to int, l *link) {
	defer t.wg.Done()
	fr := wire.NewFrameReader(l.rconn)
	var idx uint64
	for {
		f, nb, err := fr.ReadFrame()
		if err != nil {
			if !t.closed.Load() {
				t.fail(fmt.Errorf("%w: read %d -> %d: %w", ErrConnLost, from, to, err))
			}
			return
		}
		t.framesIn.Add(1)
		t.bytesIn.Add(uint64(nb))
		idx++
		msg := frameMsg{idx: idx, env: sim.Envelope{
			From: f.From, To: f.To, Inst: f.Inst, Type: f.Type, Body: f.Body,
		}}
		select {
		case l.recv <- msg:
		case <-t.closedCh:
			return
		}
	}
}

// Send transmits env with the exact simulator semantics (interceptor,
// metrics, policy delay from the shared RNG, trace, typed delivery
// event); honest cross-party envelopes additionally go on the wire.
// It runs under the lockstep: either in the coordinator (timers,
// harness setup) or in a party goroutine while the coordinator is
// blocked on its rendezvous.
func (t *Transport) Send(env sim.Envelope) {
	if env.To < 1 || env.To > t.n {
		panic(fmt.Sprintf("proc: send to party %d out of range", env.To))
	}
	if t.corrupt[env.From] && t.interceptor != nil {
		for _, d := range t.interceptor.Intercept(t.sched.Now(), env) {
			if d.Drop {
				continue
			}
			t.deliver(d.Env, d.DelayExtra)
		}
		return
	}
	t.deliver(env, 0)
}

func (t *Transport) deliver(env sim.Envelope, extra sim.Time) {
	now := t.sched.Now()
	t.metrics.Record(env, t.corrupt[env.From], now)
	delay := t.policy.Delay(t.rng, env.From, env.To, now) + extra
	if delay < 1 {
		delay = 1
	}
	if t.tracer != nil {
		t.tracer.Emit(obs.Event{
			Kind: obs.KSend, Tick: int64(now),
			Party: env.From, Peer: env.To,
			Inst: env.Inst, Type: env.Type,
			Bytes: int64(env.WireSize()),
			A:     int64(delay),
		})
	}
	// Self-sends and corrupt senders' traffic (interceptor output may
	// carry adversary-rewritten envelopes) stay off the wire: tag 0
	// means direct dispatch, exactly the simulator's path.
	var tag uint64
	if env.From != env.To && !t.corrupt[env.From] && !t.failed() && !t.closed.Load() {
		l := t.links[env.From][env.To]
		l.sendSeq++
		tag = l.sendSeq
		t.enqueueFrame(l, env)
	}
	t.sched.AfterDeliver(delay, t, tag, env)
}

// enqueueFrame encodes env and hands the bytes to the link's writer
// goroutine. It never blocks: the queue is unbounded, so even a send
// burst far larger than the kernel's socket buffering cannot stall the
// lockstep (the frames drain as the writer goroutine catches up).
func (t *Transport) enqueueFrame(l *link, env sim.Envelope) {
	buf, err := wire.AppendFrame(nil, wire.Frame{
		From: env.From, To: env.To, Type: env.Type, Inst: env.Inst, Body: env.Body,
	})
	if err != nil {
		t.fail(fmt.Errorf("%w: write %d -> %d: %w", ErrConnLost, env.From, env.To, err))
		return
	}
	// Count the frame before the writer can see it: the reader counts
	// it in only after it crossed the socket, so FramesIn never
	// overtakes FramesOut and the two agree whenever the run is
	// quiescent.
	t.framesOut.Add(1)
	t.bytesOut.Add(uint64(len(buf)))
	l.outMu.Lock()
	l.outQ = append(l.outQ, buf)
	l.outMu.Unlock()
	select {
	case l.outBell <- struct{}{}:
	default:
	}
}

// writeLoop drains the (from -> to) outbound queue onto the socket.
// Each wakeup takes everything queued so far and coalesces it into a
// single Write — a tick's burst of frames to one destination costs one
// flush instead of one syscall per message. Each write carries a
// deadline, so a receiver that has genuinely stopped draining (as
// opposed to being momentarily behind) surfaces as ErrConnLost rather
// than a hang.
func (t *Transport) writeLoop(from, to int, l *link) {
	defer t.wg.Done()
	var batch []byte
	for {
		l.outMu.Lock()
		frames := len(l.outQ)
		if frames > 0 {
			batch = batch[:0]
			for _, buf := range l.outQ {
				batch = append(batch, buf...)
			}
			l.outQ = l.outQ[:0]
		}
		l.outMu.Unlock()
		if frames == 0 {
			select {
			case <-l.outBell:
				continue
			case <-t.closedCh:
				return
			}
		}
		l.wconn.SetWriteDeadline(time.Now().Add(t.ioTimeout))
		if _, err := l.wconn.Write(batch); err != nil {
			if !t.closed.Load() {
				t.fail(fmt.Errorf("%w: write %d -> %d: wire: write frame: %w", ErrConnLost, from, to, err))
			}
			return
		}
	}
}

// DispatchDelivered implements sim.DeliverSink: the scheduler fires a
// delivery event in the coordinator goroutine; wire-backed deliveries
// (tag != 0) first await their frame off the socket, then the envelope
// crosses the rendezvous into the addressee's party goroutine. After
// the first fault every delivery is skipped so the run drains.
func (t *Transport) DispatchDelivered(env sim.Envelope, tag uint64) {
	if t.failed() || t.closed.Load() {
		return
	}
	if tag != 0 {
		got, err := t.awaitFrame(env.From, env.To, tag)
		if err != nil {
			t.fail(err)
			return
		}
		if !envelopeEqual(got, env) {
			t.fail(fmt.Errorf("%w: link %d -> %d frame %d", ErrFrameMismatch, env.From, env.To, tag))
			return
		}
		// Dispatch the envelope that physically crossed the wire.
		env = got
	}
	p := t.procs[env.To]
	select {
	case p.cmds <- env:
	case <-t.closedCh:
		return
	}
	<-p.done
}

// awaitFrame blocks until the tag-th frame sent on (from -> to) has
// been read off the wire. Frames arriving ahead of their delivery
// events (shorter policy delay than a later send) wait in the
// coordinator-only stash.
func (t *Transport) awaitFrame(from, to int, tag uint64) (sim.Envelope, error) {
	l := t.links[from][to]
	if env, ok := l.stash[tag]; ok {
		delete(l.stash, tag)
		return env, nil
	}
	timer := time.NewTimer(t.ioTimeout)
	defer timer.Stop()
	for {
		select {
		case m := <-l.recv:
			if m.idx == tag {
				return m.env, nil
			}
			l.stash[m.idx] = m.env
		case <-t.failCh:
			return sim.Envelope{}, t.Err()
		case <-timer.C:
			return sim.Envelope{}, fmt.Errorf("%w: link %d -> %d frame %d after %v",
				ErrTimeout, from, to, tag, t.ioTimeout)
		}
	}
}

func envelopeEqual(a, b sim.Envelope) bool {
	return a.From == b.From && a.To == b.To && a.Type == b.Type &&
		a.Inst == b.Inst && bytes.Equal(a.Body, b.Body)
}

// Attach registers the dispatcher for party i.
func (t *Transport) Attach(i int, d sim.Dispatcher) {
	if i < 1 || i > t.n {
		panic(fmt.Sprintf("proc: attach party %d out of range", i))
	}
	t.parties[i] = d
}

// N returns the number of parties.
func (t *Transport) N() int { return t.n }

// SetCorrupt marks the given parties as corrupt and installs the
// adversary's interceptor for their traffic.
func (t *Transport) SetCorrupt(parties []int, ic sim.Interceptor) {
	for _, p := range parties {
		if p < 1 || p > t.n {
			panic(fmt.Sprintf("proc: corrupt party %d out of range", p))
		}
		t.corrupt[p] = true
	}
	t.interceptor = ic
}

// IsCorrupt reports whether party i is corrupt.
func (t *Transport) IsCorrupt(i int) bool { return t.corrupt[i] }

// CorruptSet returns the sorted list of corrupt parties.
func (t *Transport) CorruptSet() []int {
	var out []int
	for i := 1; i <= t.n; i++ {
		if t.corrupt[i] {
			out = append(out, i)
		}
	}
	return out
}

// Metrics returns the transport's communication metrics: virtual
// accounting (Envelope.WireSize), identical to the simulator's.
func (t *Transport) Metrics() *sim.Metrics { return t.metrics }

// SetTracer installs tr as the transport's trace sink.
func (t *Transport) SetTracer(tr obs.Tracer) { t.tracer = tr }

// Addrs returns the resolved listen addresses, Addrs()[i-1] for party
// i (ports chosen by the kernel for tcp ":0" specs are filled in).
func (t *Transport) Addrs() []string { return append([]string(nil), t.addrs...) }

// Err reports the first transport fault, nil while healthy.
func (t *Transport) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// fail latches the first fault and wakes any frame wait; subsequent
// calls are no-ops.
func (t *Transport) fail(err error) {
	t.failOnce.Do(func() {
		t.errMu.Lock()
		t.err = err
		t.errMu.Unlock()
		close(t.failCh)
	})
}

func (t *Transport) failed() bool {
	select {
	case <-t.failCh:
		return true
	default:
		return false
	}
}

// WireStats implements transport.WireMeter: physical frame bytes
// (prefixes and CRC trailers included) handed to the socket writers
// and read back off the sockets. The in counters are loaded first, so
// even a read racing the run never shows FramesIn above FramesOut.
func (t *Transport) WireStats() transport.WireStats {
	framesIn, bytesIn := t.framesIn.Load(), t.bytesIn.Load()
	return transport.WireStats{
		FramesOut: t.framesOut.Load(),
		BytesOut:  t.bytesOut.Load(),
		FramesIn:  framesIn,
		BytesIn:   bytesIn,
	}
}

// Close tears down the socket mesh and joins every transport
// goroutine. Idempotent; must be called from the coordinator (no
// delivery rendezvous in flight), which is where harnesses run.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		close(t.closedCh)
		for i := 1; i <= t.n; i++ {
			if ln := t.listeners[i]; ln != nil {
				ln.Close()
			}
		}
		for from := 1; from <= t.n; from++ {
			for to := 1; to <= t.n; to++ {
				l := t.links[from][to]
				if l == nil {
					continue
				}
				if l.wconn != nil {
					l.wconn.Close()
				}
				if l.rconn != nil {
					l.rconn.Close()
				}
			}
		}
		for i := 1; i <= t.n; i++ {
			if p := t.procs[i]; p != nil {
				close(p.cmds)
			}
		}
		t.wg.Wait()
	})
	return nil
}

// CloseLink severs the physical (from -> to) connection. Test
// instrumentation for fault-path coverage: the next frame written on
// the link fails and latches ErrConnLost. Must not race an active
// run's sends; call it between runs or before the first.
func (t *Transport) CloseLink(from, to int) error {
	l := t.linkAt(from, to)
	l.rconn.Close()
	return l.wconn.Close()
}

// InjectGarbage writes raw non-frame bytes onto the (from -> to)
// connection. Test instrumentation: the receiver's CRC check must
// surface a typed transport fault rather than a hang or a bogus
// delivery. Same non-racing rule as CloseLink.
func (t *Transport) InjectGarbage(from, to int) error {
	l := t.linkAt(from, to)
	// A plausible header (length 4) followed by a payload whose CRC
	// trailer is wrong.
	_, err := l.wconn.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0})
	return err
}

func (t *Transport) linkAt(from, to int) *link {
	if from < 1 || from > t.n || to < 1 || to > t.n || from == to {
		panic(fmt.Sprintf("proc: no link %d -> %d", from, to))
	}
	return t.links[from][to]
}
