package mpc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/proc"
)

// ErrTransport wraps every transport fault an engine surfaces: a run
// over a real socket backend that loses a connection, reads a
// corrupted frame or times out drains to quiescence and reports the
// fault here instead of returning a bogus protocol outcome. The
// backend's own typed error (proc.ErrConnLost, proc.ErrTimeout, ...)
// is in the chain.
var ErrTransport = errors.New("mpc: transport fault")

// TransportSpec selects the message-plane backend an engine assembles
// over. It is plain data and deliberately NOT part of Config: a
// checkpoint identifies an engine by Config plus Adversary, and the
// same checkpoint restores onto any backend — the transport is a
// deployment concern, not a protocol identity.
//
// The zero value (and Kind "sim" or "") is the deterministic in-memory
// simulator. Kind "unix"/"tcp" gives each party its own socket
// endpoint, with honest traffic physically crossing CRC-framed sockets
// while the scheduler's event loop still runs every handler; on a
// fixed seed every backend produces identical outputs, common subsets,
// termination times, metrics and traces (the differential guarantee —
// see docs/deployment.md).
type TransportSpec struct {
	// Kind is "sim" (or empty), "unix" or "tcp".
	Kind string
	// Addrs optionally pins one listen address per party, Addrs[i-1]
	// for party i. Empty means auto-assign: unix socket paths under
	// Dir, TCP loopback with kernel-chosen ports.
	Addrs []string
	// Dir, with Kind "unix" and no Addrs, is the directory for the
	// auto-assigned socket paths; empty means a fresh temp directory
	// that Engine.Close removes.
	Dir string
	// IOTimeout bounds every socket write and frame wait; zero means
	// proc.DefaultIOTimeout.
	IOTimeout time.Duration
}

// Validate checks the spec against an n-party configuration.
func (s *TransportSpec) Validate(n int) error {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case "", "sim", "unix", "tcp":
	default:
		return fmt.Errorf("mpc: unknown transport kind %q (want sim, unix or tcp)", s.Kind)
	}
	if len(s.Addrs) > 0 && len(s.Addrs) != n {
		return fmt.Errorf("mpc: transport spec has %d addresses for %d parties", len(s.Addrs), n)
	}
	if s.IOTimeout < 0 {
		return fmt.Errorf("mpc: negative transport IO timeout %v", s.IOTimeout)
	}
	return nil
}

// factory resolves the spec into a transport factory (nil for the
// simulator) plus a cleanup for any resources the resolution itself
// created (an auto-assigned socket directory).
func (s *TransportSpec) factory(n int) (transport.Factory, func() error, error) {
	if err := s.Validate(n); err != nil {
		return nil, nil, err
	}
	if s == nil || s.Kind == "" || s.Kind == "sim" {
		return nil, nil, nil
	}
	addrs := append([]string(nil), s.Addrs...)
	var cleanup func() error
	if len(addrs) == 0 {
		switch s.Kind {
		case "unix":
			dir := s.Dir
			if dir == "" {
				d, err := os.MkdirTemp("", "mpc-sock-*")
				if err != nil {
					return nil, nil, fmt.Errorf("mpc: transport socket dir: %w", err)
				}
				dir = d
				cleanup = func() error { return os.RemoveAll(d) }
			}
			addrs = make([]string, n)
			for i := range addrs {
				addrs[i] = filepath.Join(dir, fmt.Sprintf("party-%d.sock", i+1))
			}
		case "tcp":
			addrs = make([]string, n)
			for i := range addrs {
				addrs[i] = "127.0.0.1:0"
			}
		}
	}
	return proc.New(proc.Options{Kind: s.Kind, Addrs: addrs, IOTimeout: s.IOTimeout}), cleanup, nil
}

// Close releases the engine's transport resources: sockets and their
// reader/writer goroutines for a real backend, nothing for the
// simulator.
// Idempotent; the engine must not be used afterwards.
func (e *Engine) Close() error {
	err := e.world.Close()
	if e.cleanup != nil {
		if cerr := e.cleanup(); err == nil {
			err = cerr
		}
		e.cleanup = nil
	}
	return err
}

// WireStats returns the physical-byte accounting of the engine's
// transport: actual frame bytes that crossed sockets (zeros for the
// in-memory simulator, whose traffic figures are the virtual
// Result.HonestBytes accounting).
func (e *Engine) WireStats() transport.WireStats {
	return transport.Meter(e.world.Net)
}

// TransportAddrs returns the backend's resolved listen addresses
// (index i-1 for party i), or nil for the in-memory simulator. With
// tcp ":0" specs the kernel-chosen ports are filled in.
func (e *Engine) TransportAddrs() []string {
	if p, ok := e.world.Net.(*proc.Transport); ok {
		return p.Addrs()
	}
	return nil
}

// transportCheck surfaces a transport fault after a run to quiescence:
// a faulted backend skips deliveries so the scheduler drains, and the
// phase must report ErrTransport rather than a protocol-level outcome.
func (e *Engine) transportCheck() error {
	if err := e.world.TransportErr(); err != nil {
		return fmt.Errorf("%w: %w", ErrTransport, err)
	}
	return nil
}
