package mna

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netlist"
)

// naiveSolveAt replicates the pre-plan direct walk of the circuit c that a
// was compiled from: assemble a fresh dense matrix at frequency f and
// solve it. It is the reference the compiled stamp plans must reproduce.
func naiveSolveAt(a *Analyzer, c *netlist.Circuit, f float64) ([]complex128, error) {
	nn := a.nn
	omega := 2 * math.Pi * f
	m := linalg.NewComplex(a.n)
	rhs := make([]complex128, a.n)
	for i := 0; i < nn; i++ {
		m.Add(i, i, complex(Gmin, 0))
	}
	stamp := func(n1, n2 int, y complex128) {
		if n1 >= 0 {
			m.Add(n1, n1, y)
		}
		if n2 >= 0 {
			m.Add(n2, n2, y)
		}
		if n1 >= 0 && n2 >= 0 {
			m.Add(n1, n2, -y)
			m.Add(n2, n1, -y)
		}
	}
	sourceValue := func(s *netlist.Source) complex128 {
		if f == 0 {
			return complex(s.DC, 0)
		}
		return cmplx.Rect(s.ACMag, s.ACPhase)
	}
	for _, e := range c.Elements {
		n1, n2 := a.node(e.N1), a.node(e.N2)
		switch e.Kind {
		case netlist.R, netlist.SW:
			stamp(n1, n2, complex(1/e.Value, 0))
		case netlist.D:
			stamp(n1, n2, complex(1/e.Roff, 0))
		case netlist.C:
			stamp(n1, n2, complex(0, omega*e.Value))
		case netlist.L, netlist.V:
			b := nn + a.branchIdx[e.Name]
			if n1 >= 0 {
				m.Add(n1, b, 1)
				m.Add(b, n1, 1)
			}
			if n2 >= 0 {
				m.Add(n2, b, -1)
				m.Add(b, n2, -1)
			}
			if e.Kind == netlist.L {
				m.Add(b, b, complex(0, -omega*e.Value))
			} else {
				rhs[b] = sourceValue(e.Src)
			}
		case netlist.I:
			v := sourceValue(e.Src)
			if n1 >= 0 {
				rhs[n1] -= v
			}
			if n2 >= 0 {
				rhs[n2] += v
			}
		}
	}
	for _, e := range c.Elements {
		if e.Kind != netlist.K {
			continue
		}
		bi, bj := nn+a.branchIdx[e.LA], nn+a.branchIdx[e.LB]
		mut := e.Coup * math.Sqrt(c.Find(e.LA).Value*c.Find(e.LB).Value)
		y := complex(0, -omega*mut)
		m.Add(bi, bj, y)
		m.Add(bj, bi, y)
	}
	return m.Solve(rhs)
}

// randomCircuit builds a valid random circuit: a driven ladder with a wide
// element-value spread (to exercise pivoting) and, when it has at least
// two inductors, mutual couplings between random pairs.
func randomCircuit(rng *rand.Rand) *netlist.Circuit {
	c := &netlist.Circuit{}
	nNodes := 2 + rng.Intn(5)
	nodes := []string{"0"}
	for i := 1; i <= nNodes; i++ {
		nodes = append(nodes, "n"+string(rune('0'+i)))
	}
	pick := func() string { return nodes[rng.Intn(len(nodes))] }
	c.AddV("V1", nodes[1], "0", netlist.Source{ACMag: 1 + rng.Float64(), ACPhase: rng.Float64()})
	nElem := 3 + rng.Intn(10)
	var inductors []string
	for i := 0; i < nElem; i++ {
		n1, n2 := pick(), pick()
		if n1 == n2 {
			n2 = "0"
			if n1 == "0" {
				n1 = nodes[1+rng.Intn(nNodes)]
			}
		}
		switch rng.Intn(4) {
		case 0, 1:
			// Spread over nine decades so elimination must pivot.
			c.AddR(elemName("R", i), n1, n2, math.Pow(10, -3+6*rng.Float64()))
		case 2:
			name := elemName("L", i)
			c.AddL(name, n1, n2, math.Pow(10, -7+3*rng.Float64()))
			inductors = append(inductors, name)
		case 3:
			c.AddC(elemName("C", i), n1, n2, math.Pow(10, -12+5*rng.Float64()))
		}
	}
	for k := 0; k+1 < len(inductors) && k < 3; k += 2 {
		c.AddK(elemName("K", k), inductors[k], inductors[k+1], 0.05+0.8*rng.Float64())
	}
	return c
}

func elemName(prefix string, i int) string {
	return prefix + "x" + string(rune('a'+i%26))
}

// TestCompiledPlansMatchNaiveAssembly drives randomized circuits through
// both the compiled-plan solve and a from-scratch dense assembly. The plan
// preserves the walk's accumulation order, so the results must agree to
// roundoff across the sweep band.
func TestCompiledPlansMatchNaiveAssembly(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	freqs := []float64{0, 50, 1e3, 150e3, 30e6, 108e6}
	for trial := 0; trial < 60; trial++ {
		c := randomCircuit(rng)
		a, err := NewAnalyzer(c, linalg.ModeAuto)
		if err != nil {
			t.Fatalf("trial %d: NewAnalyzer: %v\n%s", trial, err, c)
		}
		for _, f := range freqs {
			want, naiveErr := naiveSolveAt(a, c, f)
			sol, err := solve(a, f)
			if naiveErr != nil {
				// A legitimately singular point (e.g. parallel inductor
				// shorts at DC): both paths must agree it is singular.
				if err == nil {
					t.Fatalf("trial %d f=%g: naive singular (%v) but plan solved\n%s",
						trial, f, naiveErr, c)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d f=%g: %v\n%s", trial, f, err, c)
			}
			for i := range want {
				d := cmplx.Abs(sol.x[i] - want[i])
				scale := 1 + cmplx.Abs(want[i])
				if d > 1e-9*scale || math.IsNaN(d) {
					t.Fatalf("trial %d f=%g: unknown %d differs: plan %v naive %v\n%s",
						trial, f, i, sol.x[i], want[i], c)
				}
			}
		}
	}
}

// TestCompiledPlansBitwiseIdentical pins the ordering guarantee on a fixed
// representative circuit: the fused assembly must reproduce the direct
// walk bit for bit, which is what keeps the repo's golden figures stable.
func TestCompiledPlansBitwiseIdentical(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "in", "a", 0.1)
	c.AddL("L1", "a", "b", 2.2e-6)
	c.AddC("C1", "b", "0", 4.7e-6)
	c.AddL("L2", "b", "out", 10e-6)
	c.AddR("R2", "out", "0", 50)
	c.AddK("K1", "L1", "L2", 0.3)
	a, err := NewAnalyzer(c, linalg.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{150e3, 1e6, 30e6} {
		want, err := naiveSolveAt(a, c, f)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solve(a, f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if sol.x[i] != want[i] {
				t.Fatalf("f=%g: unknown %d: plan %v != naive %v", f, i, sol.x[i], want[i])
			}
		}
	}
}

// TestProbeCouplingMatchesRebuild checks both probe modes against the slow
// path (mutate the circuit, build a fresh analyzer): overwriting an
// existing K and appending a new pair, then clearing back to baseline.
func TestProbeCouplingMatchesRebuild(t *testing.T) {
	t.Parallel()
	build := func() *netlist.Circuit {
		c := &netlist.Circuit{}
		c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
		c.AddR("R1", "in", "a", 1)
		c.AddL("L1", "a", "b", 1e-6)
		c.AddL("L2", "b", "0", 2e-6)
		c.AddL("L3", "b", "out", 5e-6)
		c.AddR("R2", "out", "0", 50)
		c.AddK("K1", "L1", "L2", 0.2)
		return c
	}
	const f = 10e6
	const k = 0.07
	check := func(name string, a *Analyzer, ref *netlist.Circuit) {
		t.Helper()
		ra, err := NewAnalyzer(ref, linalg.ModeAuto)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", name, err)
		}
		want, err := solve(ra, f)
		if err != nil {
			t.Fatalf("%s: rebuild solve: %v", name, err)
		}
		got, err := solve(a, f)
		if err != nil {
			t.Fatalf("%s: probe solve: %v", name, err)
		}
		for i := range want.x {
			if d := cmplx.Abs(got.x[i] - want.x[i]); d > 1e-12*(1+cmplx.Abs(want.x[i])) {
				t.Fatalf("%s: unknown %d: probe %v rebuild %v", name, i, got.x[i], want.x[i])
			}
		}
	}

	a, err := NewAnalyzer(build(), linalg.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	// Mode 1: the probed pair already has a K — overwrite in place.
	if err := a.SetProbeCoupling("L1", "L2", k); err != nil {
		t.Fatal(err)
	}
	ref := build()
	ref.SetCoupling("L1", "L2", k)
	check("override", a, ref)

	// Mode 2: new pair — appended entries.
	if err := a.SetProbeCoupling("L2", "L3", k); err != nil {
		t.Fatal(err)
	}
	ref = build()
	ref.SetCoupling("L2", "L3", k)
	check("append", a, ref)

	// Clearing returns to the baseline.
	a.ClearProbeCoupling()
	check("cleared", a, build())

	if err := a.SetProbeCoupling("L1", "R1", k); err == nil {
		t.Error("probe on a resistor should fail")
	}
}

// TestSweepMatchesSerialSolves checks a sweep through one recycled
// workspace against independent solves in fresh workspaces: identical
// values in identical slots, so reuse carries no state between solves.
func TestSweepMatchesSerialSolves(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "in", "0", netlist.Source{ACMag: 1})
	c.AddR("R1", "in", "out", 100)
	c.AddC("C1", "out", "0", 10e-9)
	c.AddL("L1", "out", "0", 1e-3)
	a, err := NewAnalyzer(c, linalg.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	freqs := make([]float64, 64)
	for i := range freqs {
		freqs[i] = 1e3 * math.Pow(1.2, float64(i))
	}
	got, err := sweepNode(a, freqs, "out")
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freqs {
		sol, err := solve(a, f)
		if err != nil {
			t.Fatal(err)
		}
		if want := sol.NodeVoltage("out"); got[i] != want {
			t.Fatalf("f=%g: sweep %v != serial %v", f, got[i], want)
		}
	}
}

// TestSingularPropagatesFrequency: two ideal voltage sources fighting over
// the same node pair make the MNA system exactly singular; the error must
// be ErrSingular wrapped with the offending frequency.
func TestSingularPropagatesFrequency(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("V1", "n", "0", netlist.Source{ACMag: 1})
	c.AddV("V2", "n", "0", netlist.Source{ACMag: 2})
	c.AddR("R1", "n", "0", 10)
	a, err := NewAnalyzer(c, linalg.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	_, err = solve(a, 1000)
	if err == nil {
		t.Fatal("conflicting sources should be singular")
	}
	if !errors.Is(err, linalg.ErrSingular) {
		t.Errorf("error %v is not ErrSingular", err)
	}
	if !strings.Contains(err.Error(), "f=1000") {
		t.Errorf("error %q lacks the frequency context", err)
	}
}

// TestBindMatchesRecompile checks value binding against its reference:
// solving with perturbed values bound into a workspace must reproduce,
// bit for bit, an analyzer compiled from a perturbed copy of the circuit,
// under both backends. Each side reuses one workspace across the
// frequencies (a sparse workspace replays its first pivot order, so the
// histories must match), and unbinding must bring the nominal values back.
func TestBindMatchesRecompile(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	freqs := []float64{0, 1e3, 150e3, 30e6}
	for trial := 0; trial < 40; trial++ {
		c := randomCircuit(rng)
		ref := c.Clone()
		mult := make([]float64, len(c.Elements))
		for i, e := range ref.Elements {
			mult[i] = 0.8 + 0.4*rng.Float64()
			switch e.Kind {
			case netlist.R, netlist.L, netlist.C:
				e.Value *= mult[i]
			case netlist.K:
				e.Coup = math.Min(e.Coup*mult[i], 1)
			}
		}
		for _, mode := range []linalg.SolverMode{linalg.ModeDense, linalg.ModeSparse} {
			a, err := NewAnalyzer(c, mode)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := NewAnalyzer(ref, mode)
			if err != nil {
				t.Fatal(err)
			}
			vals := a.Values()
			for i, e := range c.Elements {
				switch e.Kind {
				case netlist.R, netlist.L, netlist.C:
					vals[i] *= mult[i]
				case netlist.K:
					vals[i] = math.Min(vals[i]*mult[i], 1)
				}
			}
			var w, rw Workspace
			a.Bind(&w, vals)
			for _, f := range freqs {
				want, werr := ra.Solve(&rw, f, ra.Excitation(f))
				got, err := a.Solve(&w, f, a.Excitation(f))
				if (werr == nil) != (err == nil) {
					t.Fatalf("trial %d %v f=%g: recompiled err %v, bound err %v", trial, mode, f, werr, err)
				}
				if err != nil {
					continue
				}
				for i := range want.x {
					if got.x[i] != want.x[i] {
						t.Fatalf("trial %d %v f=%g: unknown %d: bound %v recompiled %v",
							trial, mode, f, i, got.x[i], want.x[i])
					}
				}
			}
			a.Bind(&w, nil)
			const f = 1e6
			want, werr := solve(a, f)
			got, err := a.Solve(&w, f, a.Excitation(f))
			if werr != nil || err != nil {
				continue
			}
			for i := range want.x {
				if cmplx.Abs(got.x[i]-want.x[i]) > 1e-9*(1+cmplx.Abs(want.x[i])) {
					t.Fatalf("trial %d %v: unbound workspace kept perturbed values", trial, mode)
				}
			}
		}
	}
}
