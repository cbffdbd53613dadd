package bench

import (
	"testing"

	"repro/circuit"
	"repro/mpc"
)

// Every experiment runner must satisfy its own correctness predicate
// at the default configuration; the full sweeps live in bench_test.go
// at the repository root.

func TestRunnersSatisfyInvariants(t *testing.T) {
	if m := E1Acast(8, 32, 1); !m.OK {
		t.Errorf("E1: %+v", m)
	}
	if m := E4BC(8, 32, 1); !m.OK {
		t.Errorf("E4: %+v", m)
	}
	if m := E5BA(8, 1); !m.OK {
		t.Errorf("E5: %+v", m)
	}
	if m := E6WPS(Config8(), 2, 1); !m.OK {
		t.Errorf("E6: %+v", m)
	}
	if m := E9Beaver(Config5(), 1); !m.OK {
		t.Errorf("E9: %+v", m)
	}
}

func TestHeavyRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy runners skipped in -short mode")
	}
	if m := E7VSS(Config5(), 1, 1); !m.OK {
		t.Errorf("E7: %+v", m)
	}
	if m := E8ACS(Config5(), 1, 1); !m.OK {
		t.Errorf("E8: %+v", m)
	}
	if m := E10Preprocessing(Config5(), 1, 1); !m.OK {
		t.Errorf("E10: %+v", m)
	}
	if m := E11CirEval(Config5(), circuit.Sum(5), mpc.Sync, 1); !m.OK {
		t.Errorf("E11 sync: %+v", m)
	}
	if m := E11CirEval(Config5(), circuit.Sum(5), mpc.Async, 1); !m.OK {
		t.Errorf("E11 async: %+v", m)
	}
}

func TestMatrixCells(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix skipped in -short mode")
	}
	// The three decisive cells of the E12 matrix.
	if ok, tol := E12Matrix(ModeBoBW, mpc.Sync, 2, 10); !tol || !ok {
		t.Errorf("BoBW sync 2 faults: ok=%v tol=%v", ok, tol)
	}
	if ok, tol := E12Matrix(ModeBoBW, mpc.Async, 1, 10); !tol || !ok {
		t.Errorf("BoBW async 1 fault: ok=%v tol=%v", ok, tol)
	}
	if _, tol := E12Matrix(ModeAsyncOnly, mpc.Sync, 2, 10); tol {
		t.Error("async envelope should not tolerate 2 faults")
	}
}

func TestConfigHelpers(t *testing.T) {
	for _, n := range []int{5, 8, 11, 13, 16} {
		cfg := ConfigN(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("ConfigN(%d) invalid: %v", n, err)
		}
	}
	if Config8().Ts != 2 || Config8().Ta != 1 || Config5().Ts != 1 {
		t.Error("flagship configs wrong")
	}
}
