package mna

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netlist"
)

// solve runs one solve driven by the circuit's own sources in a fresh
// workspace.
func solve(a *Analyzer, f float64) (*Solution, error) {
	return a.Solve(&Workspace{}, f, a.Excitation(f))
}

// sweepNode solves at each frequency in one recycled workspace and returns
// the complex voltage at the named node.
func sweepNode(a *Analyzer, freqs []float64, node string) ([]complex128, error) {
	var w Workspace
	out := make([]complex128, len(freqs))
	for i, f := range freqs {
		sol, err := a.Solve(&w, f, a.Excitation(f))
		if err != nil {
			return nil, err
		}
		out[i] = sol.NodeVoltage(node)
	}
	return out, nil
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func solveAt(t *testing.T, c *netlist.Circuit, f float64) *Solution {
	t.Helper()
	a, err := NewAnalyzer(c, linalg.ModeAuto)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	sol, err := solve(a, f)
	if err != nil {
		t.Fatalf("Solve(%g): %v", f, err)
	}
	return sol
}

func TestVoltageDivider(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "in", "mid", 3)
	c.AddR("R2", "mid", "0", 1)
	sol := solveAt(t, c, 1000)
	got := sol.NodeVoltage("mid")
	if relErr(cmplx.Abs(got), 0.25) > 1e-9 {
		t.Errorf("divider = %v, want 0.25", got)
	}
	// Source current = -1/4 A (flows out of + terminal through circuit).
	i := sol.BranchCurrent("V1")
	if relErr(real(i), -0.25) > 1e-9 {
		t.Errorf("source current = %v", i)
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddI("I1", "0", "n", netlist.Source{ACMag: 2})
	c.AddR("R1", "n", "0", 5)
	sol := solveAt(t, c, 100)
	if got := cmplx.Abs(sol.NodeVoltage("n")); relErr(got, 10) > 1e-6 {
		t.Errorf("V = %v, want 10", got)
	}
}

func TestRCLowPass(t *testing.T) {
	t.Parallel()
	R, C := 1000.0, 100e-9
	fc := 1 / (2 * math.Pi * R * C)
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "in", "out", R)
	c.AddC("C1", "out", "0", C)
	sol := solveAt(t, c, fc)
	v := sol.NodeVoltage("out")
	if relErr(cmplx.Abs(v), 1/math.Sqrt2) > 1e-6 {
		t.Errorf("|H(fc)| = %v, want 0.707", cmplx.Abs(v))
	}
	if relErr(cmplx.Phase(v), -math.Pi/4) > 1e-6 {
		t.Errorf("phase = %v, want -45°", cmplx.Phase(v))
	}
	// Deep stop band: -40 dB/decade is RC's -20, check 100·fc gives ≈ 1/100.
	sol = solveAt(t, c, 100*fc)
	if got := cmplx.Abs(sol.NodeVoltage("out")); relErr(got, 0.01) > 0.01 {
		t.Errorf("|H(100·fc)| = %v", got)
	}
}

func TestSeriesRLCResonance(t *testing.T) {
	t.Parallel()
	R, L, C := 10.0, 10e-6, 100e-9
	f0 := 1 / (2 * math.Pi * math.Sqrt(L*C))
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "in", "a", R)
	c.AddL("L1", "a", "b", L)
	c.AddC("C1", "b", "0", C)
	sol := solveAt(t, c, f0)
	// At resonance the reactances cancel: |I| = V/R.
	i := sol.BranchCurrent("L1")
	if relErr(cmplx.Abs(i), 1/R) > 1e-6 {
		t.Errorf("|I(f0)| = %v, want %v", cmplx.Abs(i), 1/R)
	}
	// Off resonance the current drops.
	sol2 := solveAt(t, c, 10*f0)
	if cmplx.Abs(sol2.BranchCurrent("L1")) > 0.2*cmplx.Abs(i) {
		t.Error("current did not drop off resonance")
	}
}

func TestInductorShortsAtDC(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{DC: 10})
	c.AddR("R1", "in", "a", 100)
	c.AddL("L1", "a", "out", 1e-3)
	c.AddR("R2", "out", "0", 100)
	sol := solveAt(t, c, 0)
	va, vout := sol.NodeVoltage("a"), sol.NodeVoltage("out")
	if cmplx.Abs(va-vout) > 1e-9 {
		t.Errorf("inductor drop at DC = %v", va-vout)
	}
	if relErr(real(vout), 5) > 1e-9 {
		t.Errorf("Vout = %v, want 5", vout)
	}
}

func TestCapacitorOpensAtDC(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{DC: 10})
	c.AddR("R1", "in", "out", 1000)
	c.AddC("C1", "out", "0", 1e-6)
	sol := solveAt(t, c, 0)
	if relErr(real(sol.NodeVoltage("out")), 10) > 1e-6 {
		t.Errorf("Vout = %v, want 10 (no DC path)", sol.NodeVoltage("out"))
	}
}

func TestTransformerCoupling(t *testing.T) {
	t.Parallel()
	// Open-circuit secondary: V2/V1 = k·sqrt(L2/L1).
	L1, L2, k := 1e-3, 4e-3, 0.95
	c := &netlist.Circuit{}
	c.AddV("V1", "p", "0", netlist.Source{ACMag: 1})
	c.AddL("Lp", "p", "0", L1)
	c.AddL("Ls", "s", "0", L2)
	c.AddR("Rs", "s", "0", 1e9) // near-open load keeps node s referenced
	c.AddK("K1", "Lp", "Ls", k)
	sol := solveAt(t, c, 10e3)
	want := k * math.Sqrt(L2/L1)
	got := cmplx.Abs(sol.NodeVoltage("s"))
	if relErr(got, want) > 1e-3 {
		t.Errorf("V2 = %v, want %v", got, want)
	}
}

func TestCouplingSignConvention(t *testing.T) {
	t.Parallel()
	// Reversing the coupling sign flips the secondary voltage phase.
	mk := func(k float64) complex128 {
		c := &netlist.Circuit{}
		c.AddV("V1", "p", "0", netlist.Source{ACMag: 1})
		c.AddL("Lp", "p", "0", 1e-3)
		c.AddL("Ls", "s", "0", 1e-3)
		c.AddR("Rs", "s", "0", 1e9)
		c.AddK("K1", "Lp", "Ls", k)
		return solveAt(t, c, 1e4).NodeVoltage("s")
	}
	vp, vn := mk(0.5), mk(-0.5)
	if cmplx.Abs(vp+vn) > 1e-9 {
		t.Errorf("sign flip: %v vs %v", vp, vn)
	}
}

func TestPiFilterCouplingDegradesAttenuation(t *testing.T) {
	t.Parallel()
	// The paper's core circuit effect: magnetic coupling between the two
	// inductively-behaving capacitors (via their ESLs) bypasses the π
	// filter at high frequency and degrades attenuation.
	build := func(k float64) *netlist.Circuit {
		c := &netlist.Circuit{}
		c.AddI("Inoise", "0", "in", netlist.Source{ACMag: 1})
		c.AddR("Rsrc", "in", "0", 50)
		// Shunt cap 1 with ESL.
		c.AddC("C1", "in", "x1", 1e-6)
		c.AddL("Lesl1", "x1", "0", 20e-9)
		// Series choke.
		c.AddL("Lf", "in", "out", 100e-6)
		// Shunt cap 2 with ESL.
		c.AddC("C2", "out", "x2", 1e-6)
		c.AddL("Lesl2", "x2", "0", 20e-9)
		c.AddR("Rload", "out", "0", 50)
		if k != 0 {
			c.AddK("K12", "Lesl1", "Lesl2", k)
		}
		return c
	}
	f := 30e6 // deep in the stop band
	v0 := cmplx.Abs(solveAt(t, build(0), f).NodeVoltage("out"))
	v1 := cmplx.Abs(solveAt(t, build(0.1), f).NodeVoltage("out"))
	if v1 < 3*v0 {
		t.Errorf("k=0.1 should severely degrade the π filter: %v vs %v", v1, v0)
	}
}

func TestSwitchAndDiodeACStamps(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
	c.AddSwitch("S1", "in", "a", 1, 1e9, netlist.Schedule{Period: 1, OnTime: 0.5})
	c.AddR("R1", "a", "0", 1)
	c.AddDiode("D1", "a", "b", 0.01, 1e6)
	c.AddR("R2", "b", "0", 1e3)
	sol := solveAt(t, c, 1e3)
	// Switch acts as 1 Ω: divider gives ≈ 0.5 at node a.
	if got := cmplx.Abs(sol.NodeVoltage("a")); relErr(got, 0.5) > 1e-3 {
		t.Errorf("V(a) = %v", got)
	}
	// Diode blocks (1 MΩ vs 1 kΩ): node b nearly 0.
	if got := cmplx.Abs(sol.NodeVoltage("b")); got > 1e-3 {
		t.Errorf("V(b) = %v, want ≈ 0", got)
	}
}

func TestSingularCircuitError(t *testing.T) {
	t.Parallel()
	// Two ideal voltage sources with conflicting values in parallel.
	c := &netlist.Circuit{}
	c.AddV("V1", "n", "0", netlist.Source{ACMag: 1})
	c.AddV("V2", "n", "0", netlist.Source{ACMag: 2})
	a, err := NewAnalyzer(c, linalg.ModeAuto)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	if _, err := solve(a, 1e3); err == nil {
		t.Error("parallel conflicting V sources should be singular")
	}
}

func TestInvalidFrequency(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "n", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "n", "0", 1)
	a, _ := NewAnalyzer(c, linalg.ModeAuto)
	for _, f := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := solve(a, f); err == nil {
			t.Errorf("Solve(%v) should fail", f)
		}
	}
}

func TestUnknownProbesReturnNaN(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "n", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "n", "0", 1)
	sol := solveAt(t, c, 100)
	if !cmplx.IsNaN(sol.NodeVoltage("nope")) {
		t.Error("unknown node must be NaN")
	}
	if !cmplx.IsNaN(sol.BranchCurrent("R1")) {
		t.Error("non-branch element must be NaN")
	}
	if sol.NodeVoltage("0") != 0 {
		t.Error("ground must be 0")
	}
}

func TestSweepNode(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "in", "out", 1000)
	c.AddC("C1", "out", "0", 100e-9)
	a, _ := NewAnalyzer(c, linalg.ModeAuto)
	freqs := []float64{100, 1e3, 1e4, 1e5}
	vs, err := sweepNode(a, freqs, "out")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vs); i++ {
		if cmplx.Abs(vs[i]) >= cmplx.Abs(vs[i-1]) {
			t.Errorf("low-pass magnitude not decreasing at %v Hz", freqs[i])
		}
	}
}

func TestSuperposition(t *testing.T) {
	t.Parallel()
	// Linear circuit: response to two sources = sum of individual responses.
	build := func(a1, a2 float64) *netlist.Circuit {
		c := &netlist.Circuit{}
		c.AddV("V1", "x", "0", netlist.Source{ACMag: a1})
		c.AddR("R1", "x", "out", 10)
		c.AddI("I2", "0", "out", netlist.Source{ACMag: a2})
		c.AddR("R2", "out", "0", 20)
		return c
	}
	vBoth := solveAt(t, build(1, 1), 50).NodeVoltage("out")
	vV := solveAt(t, build(1, 0), 50).NodeVoltage("out")
	vI := solveAt(t, build(0, 1), 50).NodeVoltage("out")
	if cmplx.Abs(vBoth-(vV+vI)) > 1e-9 {
		t.Errorf("superposition: %v vs %v + %v", vBoth, vV, vI)
	}
}
