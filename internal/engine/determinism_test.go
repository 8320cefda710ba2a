// Determinism property tests: the engine's contract is that fanning work
// out over the pool and memoizing coupling integrals never changes a
// single bit of the physics results. These tests drive the two heaviest
// real pipelines — sensitivity ranking and coupling extraction — serially
// and in parallel, with the cache on and off, and demand exact equality.
package engine_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/rules"
	"repro/internal/sensitivity"
)

// filterCircuit is the two-stage LISN filter used by the sensitivity
// package's own tests: small but exercising every MNA element kind.
func filterCircuit() *netlist.Circuit {
	c := &netlist.Circuit{Title: "determinism test"}
	c.AddV("Vbat", "bat", "0", netlist.Source{DC: 12})
	emi.AddLISN(c, "lisn", "bat", "vin")
	c.AddC("C1", "vin", "c1x", 1e-6)
	c.AddL("Lc1", "c1x", "0", 15e-9)
	c.AddL("Lfilt", "vin", "vdd", 22e-6)
	c.AddC("C2", "vdd", "c2x", 1e-6)
	c.AddL("Lc2", "c2x", "0", 15e-9)
	c.AddV("Vsw", "sw", "0", netlist.Source{Pulse: &netlist.Pulse{
		V1: 0, V2: 12, Rise: 30e-9, Fall: 30e-9, Width: 2e-6, Period: 5e-6,
	}})
	c.AddL("Lloop", "sw", "swl", 50e-9)
	c.AddR("Rloop", "swl", "vdd", 0.2)
	return c
}

// twoCapsProject is a placed two-capacitor project whose coupling
// extraction runs real Neumann integrals through the memo cache.
func twoCapsProject() *core.Project {
	capModel := components.NewX2Cap("X2", 1e-6)
	d := &layout.Design{
		Name:      "determinism",
		Boards:    1,
		Clearance: 1e-3,
		Areas: []layout.Area{
			{Name: "board", Board: 0, Poly: geom.RectPolygon(geom.R(0, 0, 0.08, 0.06))},
		},
		Rules: rules.NewSet(nil),
	}
	for i, ref := range []string{"C1", "C2", "C3"} {
		w, l, h := capModel.Size()
		d.Comps = append(d.Comps, &layout.Component{
			Ref: ref, W: w, L: l, H: h, Axis: capModel.MagneticAxis(0),
			Placed: true, Center: geom.V2(0.015+0.02*float64(i), 0.03),
		})
	}
	c := &netlist.Circuit{Title: "determinism"}
	c.AddC("Cc1", "vin", "x1", capModel.C)
	c.AddL("Lc1", "x1", "0", capModel.EffectiveESL())
	c.AddC("Cc2", "vin", "x2", capModel.C)
	c.AddL("Lc2", "x2", "0", capModel.EffectiveESL())
	c.AddC("Cc3", "vin", "x3", capModel.C)
	c.AddL("Lc3", "x3", "0", capModel.EffectiveESL())
	return &core.Project{
		Design:  d,
		Circuit: c,
		Models: map[string]components.Model{
			"C1": capModel, "C2": capModel, "C3": capModel,
		},
		InductorOf: map[string]string{
			"C1": "Lc1", "C2": "Lc2", "C3": "Lc3",
		},
	}
}

// run executes fn with the pool capped at k workers and a cold cache, so
// memoized values computed under one setting can never leak into the next.
func run(t *testing.T, k int, fn func()) {
	t.Helper()
	old := engine.SetMaxParallelism(k)
	defer engine.SetMaxParallelism(old)
	engine.ResetCache()
	fn()
}

func TestRankDeterministicAcrossParallelism(t *testing.T) {
	rank := func(k int) sensitivity.Ranking {
		var out sensitivity.Ranking
		run(t, k, func() {
			r, err := sensitivity.RankCtx(context.Background(), filterCircuit(), "Vsw", "lisn_meas", sensitivity.Options{
				ProbeK:     0.01,
				MaxFreq:    20e6,
				Candidates: []string{"Lc1", "Lc2", "Lloop"},
			})
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			out = r
		})
		return out
	}
	serial := rank(1)
	for _, k := range []int{2, 8} {
		parallel := rank(k)
		if len(parallel) != len(serial) {
			t.Fatalf("parallelism %d: %d pairs, serial %d", k, len(parallel), len(serial))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Errorf("parallelism %d, rank[%d]: %+v != serial %+v",
					k, i, parallel[i], serial[i])
			}
		}
	}
}

func TestExtractCouplingsDeterministicAcrossParallelism(t *testing.T) {
	extract := func(k int) map[[2]string]float64 {
		var out map[[2]string]float64
		run(t, k, func() {
			p := twoCapsProject()
			ks, err := p.ExtractCouplings(p.AllPairs())
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			out = ks
		})
		return out
	}
	serial := extract(1)
	if len(serial) == 0 {
		t.Fatal("no couplings extracted")
	}
	for _, k := range []int{2, 8} {
		parallel := extract(k)
		if len(parallel) != len(serial) {
			t.Fatalf("parallelism %d: %d pairs, serial %d", k, len(parallel), len(serial))
		}
		for pair, ks := range serial {
			kp, ok := parallel[pair]
			if !ok {
				t.Fatalf("parallelism %d: pair %v missing", k, pair)
			}
			// Bit-for-bit: the engine reorders scheduling, never arithmetic.
			if math.Float64bits(kp) != math.Float64bits(ks) {
				t.Errorf("parallelism %d, pair %v: %v != serial %v", k, pair, kp, ks)
			}
		}
	}
}

func TestCouplingCacheEquivalence(t *testing.T) {
	extract := func() map[[2]string]float64 {
		p := twoCapsProject()
		ks, err := p.ExtractCouplings(p.AllPairs())
		if err != nil {
			t.Fatal(err)
		}
		return ks
	}

	engine.ResetCache()
	engine.SetCacheEnabled(false)
	uncached := extract()
	engine.SetCacheEnabled(true)
	engine.ResetCache()
	cold := extract()
	warm := extract() // second pass must be served from the cache

	for pair, want := range uncached {
		if got := cold[pair]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cold cache, pair %v: %v != uncached %v", pair, got, want)
		}
		if got := warm[pair]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("warm cache, pair %v: %v != uncached %v", pair, got, want)
		}
	}
	if hits := engine.Snapshot().CacheHits; hits == 0 {
		t.Error("warm pass recorded no cache hits")
	}
}

// TestRankStressConcurrent hammers the full sensitivity pipeline from many
// goroutines at once — nested ForEach fan-outs, shared cache, shared stats —
// and checks every goroutine still computes the identical ranking. Run with
// -race this is the engine's end-to-end soundness test.
func TestRankStressConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	opt := sensitivity.Options{
		ProbeK:     0.01,
		MaxFreq:    5e6,
		Candidates: []string{"Lc1", "Lc2", "Lloop"},
	}
	old := engine.SetMaxParallelism(4)
	defer engine.SetMaxParallelism(old)
	engine.ResetCache()

	want, err := sensitivity.RankCtx(context.Background(), filterCircuit(), "Vsw", "lisn_meas", opt)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	ranks := make([]sensitivity.Ranking, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ranks[g], errs[g] = sensitivity.RankCtx(context.Background(), filterCircuit(), "Vsw", "lisn_meas", opt)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if len(ranks[g]) != len(want) {
			t.Fatalf("goroutine %d: %d pairs, want %d", g, len(ranks[g]), len(want))
		}
		for i := range want {
			if ranks[g][i] != want[i] {
				t.Errorf("goroutine %d, rank[%d]: %+v != %+v", g, i, ranks[g][i], want[i])
			}
		}
	}
}
