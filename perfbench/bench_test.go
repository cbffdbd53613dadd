package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/mpc"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		path  string
		mod   uint8
		phase uint8
	}{
		{"mpc/e3/in/vss/1/wps/1/c/res/2/sba", modSBA, phInput},
		{"mpc/e3/in/vss/1/wps/1/c/ba/bc/4/acast", modAcast, phInput},
		{"mpc/e3/in/vss/2/c/late/3/4", modAcast, phInput},
		{"mpc/e3/in/vss/2/wps/5/c/star", modAcast, phInput},
		{"mpc/e12/in/ba/4/aba", modABA, phInput},
		{"mpc/e3/in/vss/1/wps/2", modWPS, phInput},
		{"mpc/e3/in/vss/1", modVSS, phInput},
		{"pool/b1/ts/g/0/2", modRecon, phPreprocess},
		{"pool/b0/ts/3/tt/1/b/2/rec", modRecon, phPreprocess},
		{"pool/b2/ts/1/vss/wps/3/c/wef/sba", modSBA, phPreprocess},
		{"pool/b0/vacs/ba/2/aba", modABA, phPreprocess},
		{"mpc/e7/lay/2/rec", modRecon, phOnline},
		{"mpc/e7/out", modEngine, phOnline},
		{"mpc/e7", modEngine, phOnline},
		{"mpc/e7/input", modOther, phNone},
		{"mpc/x/in/vss/1", modVSS, phNone},
		{"bench/9", modOther, phNone},
	}
	for _, c := range cases {
		if got := classify(c.path); got != (class{c.mod, c.phase}) {
			t.Errorf("classify(%q) = %+v, want module %d phase %d", c.path, got, c.mod, c.phase)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if v, ok := tailQuantile(xs(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true (ten samples beyond)", v, ok)
	}
	if _, ok := tailQuantile(xs(99), 0.9); ok {
		t.Error("p90 of 99 samples reported with only nine beyond it")
	}
	if v, ok := tailQuantile(xs(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if got := median(xs(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"repro/field.Element.Mul":                         "field",
		"repro/internal/sim.(*Scheduler).Step":            "sim",
		"repro/internal/transport/proc.(*Transport).Send": "proc",
		"repro/internal/core.(*CirEval).Deliver":          "",
		"runtime.mallocgc":                                "runtime.gc",
		"runtime.scanobject":                              "runtime.gc",
		"runtime.mapaccess2_faststr":                      "runtime.map",
		"runtime.memeqbody":                               "runtime.map",
		"runtime.aeshashbody":                             "runtime.map",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "runtime.map",
		"runtime.memmove":                                 "runtime.other",
		"sort.Slice":                                      "",
	}
	for name, want := range cases {
		if got := bucketOf(name); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestSmoke serves two requests on every workload, untraced twice and
// traced once, and requires the cross-checks the full run asserts.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			reqs := makeStream(3, 2)
			a, err := runPass(w, 3, reqs, passOpts{profile: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPass(w, 3, reqs, passOpts{})
			if err != nil {
				t.Fatal(err)
			}
			tr := newLayerTracer(w.garble)
			c, err := runPass(w, 3, reqs, passOpts{tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if a.failed+b.failed+c.failed > 0 {
				t.Fatalf("failed evaluations: %d, %d, %d", a.failed, b.failed, c.failed)
			}
			if a.ex != b.ex {
				t.Errorf("same-seed repeat differs: %+v vs %+v", a.ex, b.ex)
			}
			if a.ex != c.ex {
				t.Errorf("traced run differs: %+v vs %+v", c.ex, a.ex)
			}
			if a.ex.Msgs == 0 || a.ex.Span <= 0 || a.ex.VticksP50 <= 0 {
				t.Errorf("implausible exact figures %+v", a.ex)
			}
			for _, err := range reconcile(tr, c) {
				t.Error(err)
			}
			if tr.loop.deliveries[modOther] != 0 {
				t.Errorf("%d loop deliveries classified to no module", tr.loop.deliveries[modOther])
			}
		})
	}
	t.Run("unix", func(t *testing.T) {
		w, _ := lookupWorkload("serve-sync")
		sim, sock, err := unixCrossCheck(w, 3, makeStream(3, 2), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if sim.failed+sock.failed > 0 || sim.ex != sock.ex {
			t.Errorf("unix sockets %+v (%d failed), simulator %+v (%d failed)", sock.ex, sock.failed, sim.ex, sim.failed)
		}
		if sock.wireFrames == 0 {
			t.Error("no frames crossed the sockets")
		}
	})
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON checks that the metrics the program emits are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}

	l := &pass{setupS: 1, loopS: 1, generated: 1, ex: exact{Evals: minEvals}, cpu: map[string]float64{}}
	for i := range minEvals {
		l.latMs = append(l.latMs, float64(i))
	}
	e2e := map[string]metric{}
	if err := endToEnd(e2e, []*pass{l}); err != nil {
		t.Fatal(err)
	}
	layers := map[string]metric{}
	perLayer(layers, newLayerTracer(nil), l, l, l)
	check := func(kind string, decl []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, got map[string]metric) {
		seen := map[string]bool{}
		for _, d := range decl {
			seen[d.Name] = true
			if m, ok := got[d.Name]; !ok {
				t.Errorf("%s metric %q is declared but not emitted", kind, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s metric %q: unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
			}
		}
		var extra []string
		for k := range got {
			if !seen[k] {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics emitted but not declared: %v", kind, extra)
		}
	}
	check("end_to_end", decl.EndToEnd, e2e)
	check("per_layer", decl.PerLayer, layers)
}

func TestStreamMix(t *testing.T) {
	a, b := makeStream(1, 10), makeStream(2, 10)
	count := func(reqs []request) map[int]int {
		m := map[int]int{}
		for _, r := range reqs {
			m[r.circ.MulCount]++
		}
		return m
	}
	if ca, cb := count(a), count(b); len(ca) != len(cb) || triplesNeeded(a) != triplesNeeded(b) {
		t.Errorf("circuit mix depends on the seed: %v vs %v", ca, cb)
	}
	for _, r := range a {
		if len(r.inputs) != parties || r.circ.N != parties {
			t.Fatalf("request has %d inputs for a %d-party circuit", len(r.inputs), r.circ.N)
		}
	}
	if _, err := mpc.ExpectedOutputs(a[0].circ, a[0].inputs, []int{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
}
