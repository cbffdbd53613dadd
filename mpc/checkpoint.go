package mpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/triples"
)

// Engine checkpoint stream format (see docs/checkpointing.md):
//
//	bytes 0..5    magic "MPCKPT"
//	bytes 6..7    big-endian format version (CheckpointVersion)
//	bytes 8..11   big-endian payload length
//	payload       one JSON document (checkpointPayload)
//	last 4 bytes  big-endian IEEE CRC-32 of the payload
//
// The payload is self-describing JSON so a future version can evolve
// fields compatibly; the version number gates incompatible changes and
// the checksum turns silent torn writes into typed errors.

// CheckpointVersion is the engine checkpoint format version this build
// writes and the only version it reads.
const CheckpointVersion = 1

var checkpointMagic = [6]byte{'M', 'P', 'C', 'K', 'P', 'T'}

// maxCheckpointPayload rejects absurd length headers before allocating.
const maxCheckpointPayload = 1 << 30

// Checkpoint error taxonomy. All read-side failures are typed: a
// corrupted, truncated or otherwise undecodable stream matches
// ErrBadCheckpoint; a stream written by a different format version
// matches ErrCheckpointVersion (via *VersionError); a valid stream
// restored under a different engine configuration matches
// ErrCheckpointConfig (via *ConfigMismatchError). Snapshot-side
// refusals are ErrSnapshotMidFill and ErrSnapshotMidEvaluate.
var (
	// ErrBadCheckpoint is the sentinel wrapped by every decode failure:
	// bad magic, truncation, checksum mismatch, malformed JSON or a
	// payload violating the engine's internal invariants.
	ErrBadCheckpoint = errors.New("mpc: bad checkpoint (corrupted or truncated stream)")
	// ErrCheckpointVersion is the sentinel matched by *VersionError.
	ErrCheckpointVersion = errors.New("mpc: checkpoint format version mismatch")
	// ErrCheckpointConfig is the sentinel matched by
	// *ConfigMismatchError: the checkpoint is valid but was written by
	// an engine with a different Config or Adversary.
	ErrCheckpointConfig = errors.New("mpc: checkpoint config mismatch")
	// ErrSnapshotMidFill is returned by Snapshot while an honest
	// party's preprocessing fill is in flight.
	ErrSnapshotMidFill = errors.New("mpc: snapshot with a preprocessing fill in flight: let Preprocess complete (raise Config.EventLimit if it was cut off) before snapshotting")
	// ErrSnapshotMidEvaluate is returned by Snapshot while an
	// evaluation (or one-shot run) is executing, or while the scheduler
	// still holds pending events: live protocol state cannot be
	// serialized. Snapshot between Evaluate calls.
	ErrSnapshotMidEvaluate = errors.New("mpc: snapshot mid-evaluation: the scheduler holds live protocol events, which cannot be serialized; snapshot between Evaluate calls (raise Config.EventLimit if a run was cut off mid-phase)")
)

// VersionError reports a checkpoint written by a different format
// version; errors.Is(err, ErrCheckpointVersion) matches it.
type VersionError struct {
	// Have is the version in the stream, Want the version this build
	// supports.
	Have, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("mpc: checkpoint format v%d, this build reads v%d", e.Have, e.Want)
}

// Unwrap lets errors.Is(err, ErrCheckpointVersion) succeed.
func (e *VersionError) Unwrap() error { return ErrCheckpointVersion }

// ConfigMismatchError reports a restore whose caller-supplied Config or
// Adversary differs from the one the checkpoint was written under;
// errors.Is(err, ErrCheckpointConfig) matches it.
type ConfigMismatchError struct {
	// Field is "config" or "adversary"; Have/Want are the canonical
	// JSON renderings of the checkpoint's and the caller's value.
	Field      string
	Have, Want string
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("mpc: checkpoint %s mismatch: checkpointed %s, caller passed %s", e.Field, e.Have, e.Want)
}

// Unwrap lets errors.Is(err, ErrCheckpointConfig) succeed.
func (e *ConfigMismatchError) Unwrap() error { return ErrCheckpointConfig }

// checkpointPayload is the JSON document inside a checkpoint stream:
// the engine's full identity (config + adversary, for mismatch
// detection) and every piece of state a fresh newEngine does not
// already rebuild. The stateless collaborators — coin schedule, kernel
// cache, adversary behaviours, handler tables — are reconstructed from
// the config, not serialized; docs/checkpointing.md lists what is and
// is not captured.
type checkpointPayload struct {
	Config    Config     `json:"config"`
	Adversary *Adversary `json:"adversary,omitempty"`

	World *proto.WorldState    `json:"world"`
	Pools []*triples.PoolState `json:"pools"` // index 0 = party 1

	Preprocessed  bool          `json:"preprocessed"`
	EvalSinceFill bool          `json:"evalSinceFill"`
	Evals         int           `json:"evals"`
	PPCalls       int           `json:"ppCalls"`
	PPMsgs        uint64        `json:"ppMsgs"`
	PPBytes       uint64        `json:"ppBytes"`
	EvalMsgs      uint64        `json:"evalMsgs"`
	EvalBytes     uint64        `json:"evalBytes"`
	EvalSummaries []EvalSummary `json:"evalSummaries,omitempty"`
}

// Snapshot writes a versioned checkpoint of the engine to w. It
// refuses mid-lifecycle capture with typed errors: ErrSnapshotMidFill
// while an honest pool's preprocessing batch is in flight and
// ErrSnapshotMidEvaluate while an evaluation is live or the scheduler
// holds pending events (both are reachable when Config.EventLimit cut
// a phase off before quiescence). A snapshot therefore always captures
// a consistent between-phases state, and restoring it replays the
// remaining workload bit-identically.
func (e *Engine) Snapshot(w io.Writer) error {
	if e.busy != "" {
		return fmt.Errorf("%w (engine is inside %s)", ErrSnapshotMidEvaluate, e.busy)
	}
	if n := len(e.inflight); n > 0 {
		return fmt.Errorf("%w (%d pipelined evaluations in flight: Flush first)", ErrSnapshotMidEvaluate, n)
	}
	for _, i := range e.world.Honest() {
		if e.pools[i].Filling() {
			return ErrSnapshotMidFill
		}
	}
	if n := e.world.Sched.Pending(); n > 0 {
		return fmt.Errorf("%w (%d events pending)", ErrSnapshotMidEvaluate, n)
	}
	ws, err := e.world.Checkpoint()
	if err != nil {
		return fmt.Errorf("mpc: snapshot: %w", err)
	}
	p := checkpointPayload{
		Config:        e.cfg,
		Adversary:     e.adv,
		World:         ws,
		Pools:         make([]*triples.PoolState, e.cfg.N),
		Preprocessed:  e.preprocessed,
		EvalSinceFill: e.evalSinceFill,
		Evals:         e.evals,
		PPCalls:       e.ppCalls,
		PPMsgs:        e.ppMsgs,
		PPBytes:       e.ppBytes,
		EvalMsgs:      e.evalMsgs,
		EvalBytes:     e.evalBytes,
		EvalSummaries: e.evalSummaries,
	}
	for i := 1; i <= e.cfg.N; i++ {
		p.Pools[i-1] = e.pools[i].Snapshot()
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return fmt.Errorf("mpc: snapshot: %w", err)
	}
	var hdr [12]byte
	copy(hdr[:6], checkpointMagic[:])
	binary.BigEndian.PutUint16(hdr[6:8], CheckpointVersion)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("mpc: snapshot: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("mpc: snapshot: %w", err)
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("mpc: snapshot: %w", err)
	}
	return nil
}

// readCheckpoint decodes and verifies one checkpoint stream. All
// failures are typed (ErrBadCheckpoint / *VersionError); a payload that
// parses is NOT yet semantically validated — restoreState does that.
func readCheckpoint(r io.Reader) (*checkpointPayload, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadCheckpoint, err)
	}
	if !bytes.Equal(hdr[:6], checkpointMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, hdr[:6])
	}
	if v := binary.BigEndian.Uint16(hdr[6:8]); v != CheckpointVersion {
		return nil, &VersionError{Have: v, Want: CheckpointVersion}
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n == 0 || n > maxCheckpointPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrBadCheckpoint, n)
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrBadCheckpoint, err)
	}
	payload, sum := buf[:n], binary.BigEndian.Uint32(buf[n:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: payload checksum %08x, trailer says %08x", ErrBadCheckpoint, got, sum)
	}
	p := &checkpointPayload{}
	if err := json.Unmarshal(payload, p); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrBadCheckpoint, err)
	}
	return p, nil
}

// canonicalJSON renders v for config comparison. Map keys marshal
// sorted, so equal values always render identically.
func canonicalJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<unmarshalable: %v>", err)
	}
	return string(b)
}

// matchConfig compares the checkpointed value against the caller's by
// canonical JSON, the same equality the engine's determinism contract
// is quantified over.
func matchConfig(field string, have, want any) error {
	h, w := canonicalJSON(have), canonicalJSON(want)
	if h != w {
		return &ConfigMismatchError{Field: field, Have: h, Want: w}
	}
	return nil
}

// RestoreEngine reads a checkpoint written by Snapshot and rebuilds the
// engine under cfg, which must equal the checkpointed config
// (ErrCheckpointConfig otherwise — a checkpoint is only meaningful on
// the world it was captured from). The restored engine resumes the
// session bit-identically: the same sequence of Evaluate calls yields
// the same outputs, CS sets, traffic and tick figures as the engine
// that never stopped.
func RestoreEngine(cfg Config, r io.Reader) (*Engine, error) {
	return RestoreEngineTraced(cfg, nil, nil, r)
}

// RestoreEngineAdv is RestoreEngine for a session with a static
// adversary; adv must equal the checkpointed adversary.
func RestoreEngineAdv(cfg Config, adv *Adversary, r io.Reader) (*Engine, error) {
	return RestoreEngineTraced(cfg, adv, nil, r)
}

// RestoreEngineTraced is RestoreEngineAdv with a trace sink for the
// resumed session (pre-crash events are gone — tracing starts at the
// restore point). tr may be nil.
func RestoreEngineTraced(cfg Config, adv *Adversary, tr obs.Tracer, r io.Reader) (*Engine, error) {
	return RestoreEngineOpts(cfg, EngineOptions{Adversary: adv, Tracer: tr}, r)
}

// RestoreEngineOpts is the general restore constructor: a checkpoint
// identifies an engine by Config plus Adversary only, so the same
// checkpoint may be restored onto any transport backend — the session
// resumes bit-identically on the virtual clock whether the resumed
// traffic crosses the in-memory simulator or real sockets.
func RestoreEngineOpts(cfg Config, opts EngineOptions, r io.Reader) (*Engine, error) {
	p, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if err := matchConfig("config", p.Config, cfg); err != nil {
		return nil, err
	}
	if err := matchConfig("adversary", p.Adversary, opts.Adversary); err != nil {
		return nil, err
	}
	e, err := NewEngineOpts(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := e.restoreState(p); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// restoreState loads a verified payload into a freshly built engine,
// validating the payload's internal invariants (everything here wraps
// ErrBadCheckpoint: the stream decoded but lies about engine state).
func (e *Engine) restoreState(p *checkpointPayload) error {
	badf := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
	}
	if p.World == nil {
		return badf("missing world state")
	}
	if len(p.Pools) != e.cfg.N {
		return badf("%d pool states for %d parties", len(p.Pools), e.cfg.N)
	}
	if p.Evals < 0 || p.PPCalls < 0 {
		return badf("negative lifecycle counters (evals %d, ppCalls %d)", p.Evals, p.PPCalls)
	}
	if p.World.Epochs < p.Evals {
		return badf("epoch counter %d below evaluation count %d", p.World.Epochs, p.Evals)
	}
	if err := e.world.Restore(p.World); err != nil {
		return badf("world: %v", err)
	}
	for i := 1; i <= e.cfg.N; i++ {
		pool, err := triples.RestorePool(e.world.Runtimes[i], "pool", e.pcfg, e.coin, p.Pools[i-1])
		if err != nil {
			return badf("pool %d: %v", i, err)
		}
		e.pools[i] = pool
	}
	e.preprocessed = p.Preprocessed
	e.evalSinceFill = p.EvalSinceFill
	e.evals = p.Evals
	e.ppCalls = p.PPCalls
	e.ppMsgs = p.PPMsgs
	e.ppBytes = p.PPBytes
	e.evalMsgs = p.EvalMsgs
	e.evalBytes = p.EvalBytes
	e.evalSummaries = append([]EvalSummary(nil), p.EvalSummaries...)
	return nil
}

// CheckpointInfo is the human-facing summary of a checkpoint stream,
// decoded without building an engine (the `scenario checkpoint` verb).
type CheckpointInfo struct {
	Version   int        `json:"version"`
	Config    Config     `json:"config"`
	Adversary *Adversary `json:"adversary,omitempty"`
	// Now is the virtual clock at capture; Epochs the session epochs
	// begun; Evaluations the completed Evaluate calls.
	Now         int64 `json:"now"`
	Epochs      int   `json:"epochs"`
	Evaluations int   `json:"evaluations"`
	// Preprocessed reports whether the engine had a filled pool;
	// Batches counts its preprocessing fills; Pool is the first honest
	// party's depth accounting.
	Preprocessed bool              `json:"preprocessed"`
	Batches      int               `json:"batches"`
	Pool         triples.PoolStats `json:"pool"`
}

// InspectCheckpoint decodes a checkpoint stream's summary without
// restoring an engine. It shares the read path (and error taxonomy)
// with RestoreEngine but skips the config comparison: inspection has
// no caller-side config to compare against.
func InspectCheckpoint(r io.Reader) (*CheckpointInfo, error) {
	p, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if p.World == nil {
		return nil, fmt.Errorf("%w: missing world state", ErrBadCheckpoint)
	}
	info := &CheckpointInfo{
		Version:      CheckpointVersion,
		Config:       p.Config,
		Adversary:    p.Adversary,
		Now:          p.World.Sched.Now,
		Epochs:       p.World.Epochs,
		Evaluations:  p.Evals,
		Preprocessed: p.Preprocessed,
	}
	corrupt := map[int]bool{}
	for _, c := range p.Adversary.corrupt() {
		corrupt[c] = true
	}
	for i := 1; i <= len(p.Pools); i++ {
		if corrupt[i] || p.Pools[i-1] == nil {
			continue
		}
		info.Pool = p.Pools[i-1].Stats()
		info.Batches = info.Pool.Batches
		break
	}
	return info, nil
}
