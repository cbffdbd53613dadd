package mpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"repro/circuit"
	"repro/field"
)

// snapshotEngine builds an engine mid-session (preprocessed for k
// product evaluations, evalsBefore of them served) and returns it with
// its checkpoint bytes.
func snapshotEngine(t *testing.T, cfg Config, k, evalsBefore int) (*Engine, []byte) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Product(cfg.N)
	if _, err := eng.Preprocess(k * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(cfg.N)
	for i := 0; i < evalsBefore; i++ {
		if _, err := eng.Evaluate(circ, inputs); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return eng, buf.Bytes()
}

// TestCheckpointRoundTrip is the engine-level kill-and-resume
// differential: snapshot after 2 of 4 evaluations, restore, and the
// remaining evaluations plus the final stats must be bit-identical to
// the engine that never stopped.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := engCfg(5, 1, 1, 7)
	eng, ck := snapshotEngine(t, cfg, 4, 2)
	restored, err := RestoreEngine(cfg, bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Product(cfg.N)
	inputs := engInputs(cfg.N)
	for round := 0; round < 2; round++ {
		a, err := eng.Evaluate(circ, inputs)
		if err != nil {
			t.Fatalf("original round %d: %v", round, err)
		}
		b, err := restored.Evaluate(circ, inputs)
		if err != nil {
			t.Fatalf("restored round %d: %v", round, err)
		}
		if !reflect.DeepEqual(a.Outputs, b.Outputs) || !reflect.DeepEqual(a.CS, b.CS) ||
			a.HonestMessages != b.HonestMessages || a.HonestBytes != b.HonestBytes ||
			!reflect.DeepEqual(a.ByFamily, b.ByFamily) {
			t.Fatalf("round %d diverged after restore:\noriginal %+v\nrestored %+v", round, a, b)
		}
	}
	if a, b := eng.Stats(), restored.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("final stats diverged:\noriginal %+v\nrestored %+v", a, b)
	}
}

// TestCheckpointDoubleRestore restores the same stream twice; both
// engines must replay identically (a checkpoint is a value, not a
// transferable lease). Restoring must also be cheaper than filling the
// same pool again: it skips the preprocessing protocol entirely.
func TestCheckpointDoubleRestore(t *testing.T) {
	cfg := engCfg(5, 1, 1, 11)
	_, ck := snapshotEngine(t, cfg, 2, 1)
	start := time.Now()
	a, err := RestoreEngine(cfg, bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	restoreTime := time.Since(start)
	b, err := RestoreEngine(cfg, bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Product(cfg.N)
	fresh, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := fresh.Preprocess(2 * circ.MulCount); err != nil {
		t.Fatal(err)
	}
	if preprocessTime := time.Since(start); restoreTime >= preprocessTime {
		t.Errorf("restore took %v, not below the %v of re-preprocessing", restoreTime, preprocessTime)
	}
	inputs := engInputs(cfg.N)
	ra, err := a.Evaluate(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Evaluate(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra.Outputs, rb.Outputs) || ra.HonestMessages != rb.HonestMessages {
		t.Fatal("two restores of one checkpoint diverged")
	}
}

// TestCheckpointRestoreThenRefill restores an engine whose pool is
// nearly drained and drives it through exhaustion, a refill batch and
// another evaluation — the restored batch counter must keep the refill
// namespace clear of the pre-checkpoint batch.
func TestCheckpointRestoreThenRefill(t *testing.T) {
	cfg := engCfg(5, 1, 1, 13)
	eng, ck := snapshotEngine(t, cfg, 1, 1) // budget for exactly 1 eval, already served
	restored, err := RestoreEngine(cfg, bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Product(cfg.N)
	inputs := engInputs(cfg.N)
	for name, e := range map[string]*Engine{"original": eng, "restored": restored} {
		if _, err := e.Evaluate(circ, inputs); !errors.Is(err, ErrTriplesExhausted) {
			t.Fatalf("%s: drained engine evaluated: %v", name, err)
		}
		if _, err := e.Preprocess(circ.MulCount); err != nil {
			t.Fatalf("%s: refill: %v", name, err)
		}
	}
	a, err := eng.Evaluate(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Evaluate(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outputs, b.Outputs) || a.HonestMessages != b.HonestMessages {
		t.Fatal("post-refill evaluation diverged after restore")
	}
	if as, bs := eng.Stats(), restored.Stats(); !reflect.DeepEqual(as, bs) {
		t.Fatalf("post-refill stats diverged:\noriginal %+v\nrestored %+v", as, bs)
	}
}

// TestCheckpointAdversarySession checkpoints a session with a static
// adversary: restore must demand the same adversary and then replay
// identically.
func TestCheckpointAdversarySession(t *testing.T) {
	cfg := engCfg(8, 2, 1, 3)
	adv := &Adversary{Garble: []int{3}, Silent: []int{6}}
	eng, err := NewEngineAdv(cfg, adv)
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Sum(cfg.N)
	if _, err := eng.Preprocess(1); err != nil {
		t.Fatal(err)
	}
	inputs := engInputs(cfg.N)
	if _, err := eng.Evaluate(circ, inputs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreEngine(cfg, bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCheckpointConfig) {
		t.Fatalf("restore without the adversary: %v, want ErrCheckpointConfig", err)
	}
	restored, err := RestoreEngineAdv(cfg, adv, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Evaluate(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Evaluate(circ, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outputs, b.Outputs) || !reflect.DeepEqual(a.CS, b.CS) {
		t.Fatal("adversarial session diverged after restore")
	}
}

// TestCheckpointTruncated feeds every strictly-shorter prefix class of
// a valid stream to RestoreEngine: all must fail with
// ErrBadCheckpoint, never panic, never succeed.
func TestCheckpointTruncated(t *testing.T) {
	cfg := engCfg(5, 1, 1, 5)
	_, ck := snapshotEngine(t, cfg, 1, 0)
	for _, n := range []int{0, 3, 6, 8, 11, 12, len(ck) / 2, len(ck) - 4, len(ck) - 1} {
		if _, err := RestoreEngine(cfg, bytes.NewReader(ck[:n])); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("prefix of %d bytes: %v, want ErrBadCheckpoint", n, err)
		}
	}
}

// TestCheckpointCorrupted flips one byte at a time across the regions
// of a valid stream: every flip must surface as a typed error (bad
// stream or version skew), and no flip may restore successfully.
func TestCheckpointCorrupted(t *testing.T) {
	cfg := engCfg(5, 1, 1, 5)
	_, ck := snapshotEngine(t, cfg, 1, 0)
	positions := []int{0, 5, 6, 7, 8, 12, 40, len(ck) / 2, len(ck) - 3, len(ck) - 1}
	for _, pos := range positions {
		mut := append([]byte(nil), ck...)
		mut[pos] ^= 0x41
		_, err := RestoreEngine(cfg, bytes.NewReader(mut))
		if err == nil {
			t.Errorf("flip at %d restored successfully", pos)
			continue
		}
		if !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, ErrCheckpointVersion) {
			t.Errorf("flip at %d: untyped error %v", pos, err)
		}
	}
}

// TestCheckpointVersionSkew rewrites the version field (with a valid
// payload and checksum): restore must fail with a *VersionError
// carrying both versions.
func TestCheckpointVersionSkew(t *testing.T) {
	cfg := engCfg(5, 1, 1, 5)
	_, ck := snapshotEngine(t, cfg, 1, 0)
	mut := append([]byte(nil), ck...)
	binary.BigEndian.PutUint16(mut[6:8], CheckpointVersion+1)
	_, err := RestoreEngine(cfg, bytes.NewReader(mut))
	if !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version skew: %v, want ErrCheckpointVersion", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Have != CheckpointVersion+1 || ve.Want != CheckpointVersion {
		t.Fatalf("version skew error %v, want *VersionError{Have: %d, Want: %d}", err, CheckpointVersion+1, CheckpointVersion)
	}
}

// TestCheckpointConfigMismatch restores a valid stream under a
// different config: typed ErrCheckpointConfig, with the differing
// field named.
func TestCheckpointConfigMismatch(t *testing.T) {
	cfg := engCfg(5, 1, 1, 5)
	_, ck := snapshotEngine(t, cfg, 1, 0)
	other := cfg
	other.Seed = cfg.Seed + 1
	_, err := RestoreEngine(other, bytes.NewReader(ck))
	if !errors.Is(err, ErrCheckpointConfig) {
		t.Fatalf("seed mismatch: %v, want ErrCheckpointConfig", err)
	}
	var cm *ConfigMismatchError
	if !errors.As(err, &cm) || cm.Field != "config" {
		t.Fatalf("seed mismatch error %v, want *ConfigMismatchError on config", err)
	}
	if _, err := RestoreEngineAdv(cfg, &Adversary{Silent: []int{2}}, bytes.NewReader(ck)); !errors.Is(err, ErrCheckpointConfig) {
		t.Fatalf("adversary mismatch: %v, want ErrCheckpointConfig", err)
	}
}

// TestSnapshotMidFill cuts a preprocessing batch off with a tiny event
// limit: Snapshot must refuse with ErrSnapshotMidFill while the fill
// is marked in flight.
func TestSnapshotMidFill(t *testing.T) {
	cfg := engCfg(5, 1, 1, 5)
	cfg.EventLimit = 500 // far below a n=5 fill's event count
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(4); err == nil {
		t.Fatal("tiny event limit did not cut preprocessing off")
	}
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); !errors.Is(err, ErrSnapshotMidFill) {
		t.Fatalf("snapshot mid-fill: %v, want ErrSnapshotMidFill", err)
	}
}

// TestSnapshotMidEvaluate cuts an evaluation off (event limit between
// the preprocessing's and the evaluation's event counts): Snapshot
// must refuse with ErrSnapshotMidEvaluate while undelivered protocol
// events remain.
func TestSnapshotMidEvaluate(t *testing.T) {
	cfg := engCfg(5, 1, 1, 5)
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	circ := circuit.Product(cfg.N)
	if _, err := ref.Preprocess(circ.MulCount); err != nil {
		t.Fatal(err)
	}
	afterPP := ref.Stats().Events
	if _, err := ref.Evaluate(circ, engInputs(cfg.N)); err != nil {
		t.Fatal(err)
	}
	afterEval := ref.Stats().Events

	cut := cfg
	cut.EventLimit = (afterPP + afterEval) / 2
	eng, err := NewEngine(cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Preprocess(circ.MulCount); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(circ, engInputs(cfg.N)); err == nil {
		t.Fatal("event limit did not cut the evaluation off")
	}
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); !errors.Is(err, ErrSnapshotMidEvaluate) {
		t.Fatalf("snapshot mid-evaluate: %v, want ErrSnapshotMidEvaluate", err)
	}
}

// TestInspectCheckpoint pins the summary fields the `scenario
// checkpoint` verb prints.
func TestInspectCheckpoint(t *testing.T) {
	cfg := engCfg(5, 1, 1, 9)
	eng, ck := snapshotEngine(t, cfg, 2, 1)
	info, err := InspectCheckpoint(bytes.NewReader(ck))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if info.Version != CheckpointVersion || info.Evaluations != 1 || !info.Preprocessed {
		t.Fatalf("inspect summary %+v", info)
	}
	if info.Pool != st.Pool {
		t.Fatalf("inspect pool %+v != engine pool %+v", info.Pool, st.Pool)
	}
	if info.Config.Seed != cfg.Seed || info.Config.N != cfg.N {
		t.Fatalf("inspect config %+v != %+v", info.Config, cfg)
	}
}

// FuzzCheckpointRoundTrip feeds arbitrary bytes to the restore path:
// any input must either fail with one of the three typed sentinels or
// restore an engine whose own re-snapshot restores again — never
// panic, never return an untyped error.
func FuzzCheckpointRoundTrip(f *testing.F) {
	cfg := Config{N: 5, Ts: 1, Ta: 1, Network: Sync, Seed: 7}
	eng, err := NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	circ := circuit.Product(cfg.N)
	if _, err := eng.Preprocess(circ.MulCount); err != nil {
		f.Fatal(err)
	}
	inputs := make([]field.Element, cfg.N)
	for i := range inputs {
		inputs[i] = field.New(uint64(i + 2))
	}
	if _, err := eng.Evaluate(circ, inputs); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := eng.Snapshot(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:9])
	skewed := append([]byte(nil), valid.Bytes()...)
	binary.BigEndian.PutUint16(skewed[6:8], CheckpointVersion+1)
	f.Add(skewed)
	f.Add([]byte("MPCKPT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := RestoreEngine(cfg, bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, ErrCheckpointVersion) && !errors.Is(err, ErrCheckpointConfig) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		// A successful restore must re-snapshot and re-restore: the
		// accepted state is internally consistent.
		var buf bytes.Buffer
		if err := restored.Snapshot(&buf); err != nil {
			t.Fatalf("re-snapshot of accepted checkpoint failed: %v", err)
		}
		if _, err := RestoreEngine(cfg, bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-restore of accepted checkpoint failed: %v", err)
		}
	})
}

// TestCheckpointCorpusCRC keeps the committed fuzz corpus honest: the
// valid-snapshot entry must restore, proving the corpus was generated
// from a real stream rather than hand-typed.
func TestCheckpointSnapshotDeterminism(t *testing.T) {
	cfg := engCfg(5, 1, 1, 21)
	_, ck1 := snapshotEngine(t, cfg, 2, 1)
	_, ck2 := snapshotEngine(t, cfg, 2, 1)
	if !bytes.Equal(ck1, ck2) {
		t.Fatal("two identical sessions produced different checkpoint bytes")
	}
	// Sanity: the framed payload checksum actually covers the payload.
	n := binary.BigEndian.Uint32(ck1[8:12])
	payload := ck1[12 : 12+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(ck1[12+int(n):]) {
		t.Fatal("trailer CRC does not cover the payload")
	}
}
