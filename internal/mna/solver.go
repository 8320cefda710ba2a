// Package mna implements frequency-domain circuit analysis by modified
// nodal analysis with complex arithmetic. Inductors and voltage sources
// contribute branch-current unknowns (group 2), which lets mutual
// inductances — the PEEC coupling results — be stamped directly, exactly as
// the paper inserts coupling factors between circuit inductances.
//
// The MNA matrix is affine in frequency, M(ω) = G + jω·B: every stamp is
// either frequency-independent (conductances, branch incidence) or scales
// linearly with ω (capacitors, inductors, mutual couplings). NewAnalyzer
// therefore walks the netlist once and compiles flat stamp plans — index/
// value lists for G and B plus right-hand-side source slots — so each
// per-frequency assembly is a single fused pass into a reusable buffer
// with no map lookups and no allocation. The plan entries are emitted in
// the exact order the old netlist walk stamped them, which keeps the
// floating-point sums (and therefore every figure) bit-for-bit identical.
// Source phasors are an input of every solve and element values can be
// re-bound per workspace, so one compiled Analyzer serves every harmonic,
// worker and Monte Carlo build of a design.
package mna

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/netlist"
)

// Gmin is the conductance added from every node to ground to keep
// matrices well-conditioned in the presence of floating subcircuits.
const Gmin = 1e-12

// planEntry is one precompiled matrix stamp: a flat buffer index and a
// value. Entries on the G plan add v to the real part of the cell;
// entries on the B plan add ω·v to the imaginary part.
type planEntry struct {
	idx int
	v   float64
}

// valueRef ties one plan entry to the element value it is stamped from,
// so a new value vector re-binds the entry without recompiling the plan.
// la and lb are the coupled inductors' element indices of a K element.
type valueRef struct {
	pos, elem, la, lb int
	neg               bool
}

// srcSlot is one precompiled right-hand-side contribution of an
// independent source: src indexes the per-solve source phasors.
type srcSlot struct {
	row      int
	negative bool
	src      int
}

// Analyzer is the compiled, read-only description of one circuit for
// repeated AC solves: node and branch indices, the G and B stamp plans,
// the right-hand-side source slots and the factorization backend. After
// NewAnalyzer it never touches the netlist again. Every solve runs in a
// caller-owned Workspace and takes its source phasors as an argument, so
// any number of goroutines may solve against one Analyzer, each with its
// own Workspace. The one mutation is the sensitivity probe
// (SetProbeCoupling), which is only legal on an Analyzer that a single
// goroutine owns.
type Analyzer struct {
	nodeIdx    map[string]int
	nn         int // node unknowns
	branchIdx  map[string]int
	branchElem []int // element index of each branch (L and V)
	n          int   // total unknowns = nn + branches

	kinds   []netlist.Kind
	vals    []float64 // nominal element values, see Values
	sources []string  // independent sources (V, I) in element order
	dc, ac  []complex128

	gPlan, bPlan []planEntry
	gRefs, bRefs []valueRef
	rhsPlan      []srcSlot
	baseBLen     int // bPlan length without an appended probe coupling
	couplingPos  int // bPlan index of the first K stamp
	couplings    [][2]int

	// Probe-coupling state (sensitivity analysis): either two overwritten
	// coupling entries (restored on clear) or two appended cells
	// (truncated on clear).
	probeMode  int // 0 = none, 1 = overwrote existing K, 2 = appended
	probeIdx   [2]int
	probeSaved [2]float64

	// The factorization backend, decided once by NewAnalyzer, and for the
	// sparse backend the CSC pattern of the stamp cells plus the value slot
	// of every G/B plan entry. A probe append rebuilds the pattern and
	// bumps patGen, which tells workspaces to drop their matrices.
	sparse bool
	pat    *linalg.Pattern
	gSlot  []int32
	bSlot  []int32
	patGen int
}

// Workspace is the caller-owned reusable state of the solve path: the
// plans with values bound by Bind, the assembly buffer, the factorization
// scratch, the right-hand side and the solution. Everything is sized on
// first use and then recycled, so the steady-state solve performs no
// allocations. A Workspace serves one Analyzer and one goroutine at a
// time; the zero value is ready to use.
type Workspace struct {
	bound        bool
	gPlan, bPlan []planEntry

	m   *linalg.Complex
	lu  linalg.ComplexLU
	sm  *linalg.SparseComplex
	slu linalg.SparseComplexLU
	gen int // pattern generation sm was built against
	rhs []complex128
	sol Solution
}

// NewAnalyzer validates and indexes the circuit, compiles the stamp plans
// and decides the factorization backend. mode is the solver choice;
// ModeAuto defers to the process-wide selection (the CLIs' -solver flag
// via linalg.SetDefaultSolver) and from there to the size/density
// heuristic.
func NewAnalyzer(c *netlist.Circuit, mode linalg.SolverMode) (*Analyzer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{
		nodeIdx:   map[string]int{},
		branchIdx: map[string]int{},
		kinds:     make([]netlist.Kind, len(c.Elements)),
		vals:      make([]float64, len(c.Elements)),
	}
	nodes := c.Nodes()
	for i, n := range nodes {
		a.nodeIdx[n] = i
	}
	a.nn = len(nodes)
	for i, e := range c.Elements {
		a.kinds[i] = e.Kind
		switch e.Kind {
		case netlist.D:
			a.vals[i] = e.Roff
		case netlist.K:
			a.vals[i] = e.Coup
		default:
			a.vals[i] = e.Value
		}
		if e.Kind == netlist.L || e.Kind == netlist.V {
			a.branchIdx[e.Name] = len(a.branchElem)
			a.branchElem = append(a.branchElem, i)
		}
		if e.Kind == netlist.V || e.Kind == netlist.I {
			a.sources = append(a.sources, e.Name)
			a.dc = append(a.dc, complex(e.Src.DC, 0))
			a.ac = append(a.ac, cmplx.Rect(e.Src.ACMag, e.Src.ACPhase))
		}
	}
	a.n = a.nn + len(a.branchElem)
	a.compile(c)
	bindPlans(a.gPlan, a.gRefs, a.vals, a.kinds)
	bindPlans(a.bPlan, a.bRefs, a.vals, a.kinds)
	a.decideSolver(mode)
	return a, nil
}

// compile walks the netlist once and records every stamp as a plan entry,
// preserving the element-order accumulation of the direct walk. Entries
// stamped from an element value are left zero and recorded as valueRefs;
// bindPlans fills them.
func (a *Analyzer) compile(c *netlist.Circuit) {
	nn := a.nn
	elem, src := 0, 0 // current element; next source's phasor index
	addG := func(i, j int, v float64) {
		a.gPlan = append(a.gPlan, planEntry{idx: i*a.n + j, v: v})
	}
	refG := func(i, j int, neg bool) {
		a.gRefs = append(a.gRefs, valueRef{pos: len(a.gPlan), elem: elem, neg: neg})
		addG(i, j, 0)
	}
	addBRef := func(i, j int, ref valueRef) {
		ref.pos = len(a.bPlan)
		a.bRefs = append(a.bRefs, ref)
		a.bPlan = append(a.bPlan, planEntry{idx: i*a.n + j})
	}
	refB := func(i, j int, neg bool) { addBRef(i, j, valueRef{elem: elem, neg: neg}) }
	stamp := func(n1, n2 int, ref func(i, j int, neg bool)) {
		if n1 >= 0 {
			ref(n1, n1, false)
		}
		if n2 >= 0 {
			ref(n2, n2, false)
		}
		if n1 >= 0 && n2 >= 0 {
			ref(n1, n2, true)
			ref(n2, n1, true)
		}
	}

	// Gmin to ground on every node.
	for i := 0; i < nn; i++ {
		addG(i, i, Gmin)
	}
	for i, e := range c.Elements {
		elem = i
		n1, n2 := a.node(e.N1), a.node(e.N2)
		switch e.Kind {
		case netlist.R, netlist.SW, netlist.D:
			// In AC analysis the switch is its on-resistance and the diode
			// blocks (its off-resistance); the EMI flow replaces switching
			// devices by equivalent noise sources.
			stamp(n1, n2, refG)
		case netlist.C:
			stamp(n1, n2, refB)
		case netlist.L, netlist.V:
			b := nn + a.branchIdx[e.Name]
			// KCL: branch current leaves N1 and enters N2.
			if n1 >= 0 {
				addG(n1, b, 1)
				addG(b, n1, 1)
			}
			if n2 >= 0 {
				addG(n2, b, -1)
				addG(b, n2, -1)
			}
			if e.Kind == netlist.L {
				refB(b, b, false)
			} else {
				a.rhsPlan = append(a.rhsPlan, srcSlot{row: b, src: src})
				src++
			}
		case netlist.I:
			if n1 >= 0 {
				a.rhsPlan = append(a.rhsPlan, srcSlot{row: n1, negative: true, src: src})
			}
			if n2 >= 0 {
				a.rhsPlan = append(a.rhsPlan, srcSlot{row: n2, src: src})
			}
			src++
		}
	}
	// Mutual couplings go last, two entries each, in K element order.
	a.couplingPos = len(a.bPlan)
	for i, e := range c.Elements {
		if e.Kind != netlist.K {
			continue
		}
		ia, ib := a.branchIdx[e.LA], a.branchIdx[e.LB]
		a.couplings = append(a.couplings, [2]int{ia, ib})
		ref := valueRef{elem: i, la: a.branchElem[ia], lb: a.branchElem[ib]}
		addBRef(nn+ia, nn+ib, ref)
		addBRef(nn+ib, nn+ia, ref)
	}
	a.baseBLen = len(a.bPlan)
}

// stampValue is the plan value an element contributes before its sign:
// 1/R for resistors, switches and diodes (a diode's value is its
// off-resistance), C for capacitors, −L for inductors and −k·√(La·Lb) for
// couplings — all from the value vector vals.
func stampValue(r valueRef, vals []float64, kinds []netlist.Kind) float64 {
	switch kinds[r.elem] {
	case netlist.C:
		return vals[r.elem]
	case netlist.L:
		return -vals[r.elem]
	case netlist.K:
		return -(vals[r.elem] * math.Sqrt(vals[r.la]*vals[r.lb]))
	default:
		return 1 / vals[r.elem]
	}
}

// bindPlans writes the value of every referenced entry of plan from vals.
func bindPlans(plan []planEntry, refs []valueRef, vals []float64, kinds []netlist.Kind) {
	for _, r := range refs {
		v := stampValue(r, vals, kinds)
		if r.neg {
			v = -v
		}
		plan[r.pos].v = v
	}
}

// Values returns a copy of the nominal element-value vector, indexed like
// the circuit's elements: the value of R, L, C and switch elements, the
// off-resistance of diodes and the coupling factor of K elements (sources
// read 0). Scale entries and pass the vector to Bind to solve a perturbed
// build of the same circuit.
func (a *Analyzer) Values() []float64 { return append([]float64(nil), a.vals...) }

// Bind makes the workspace solve with the element values vals (see
// Values) in place of the nominal ones, using the stamp expressions of
// the compiled plans; nil restores the nominal values. A probe coupling is
// not carried into bound values. Bind also drops the pivot order a sparse
// workspace replays, so a bound build solves exactly as on an analyzer
// freshly compiled from the perturbed circuit.
func (a *Analyzer) Bind(w *Workspace, vals []float64) {
	w.slu = linalg.SparseComplexLU{}
	w.bound = vals != nil
	if !w.bound {
		return
	}
	w.gPlan = append(w.gPlan[:0], a.gPlan...)
	w.bPlan = append(w.bPlan[:0], a.bPlan[:a.baseBLen]...)
	bindPlans(w.gPlan, a.gRefs, vals, a.kinds)
	bindPlans(w.bPlan, a.bRefs, vals, a.kinds)
}

// Sources returns the names of the independent sources in element order:
// the order of the phasor vector every solve takes.
func (a *Analyzer) Sources() []string { return append([]string(nil), a.sources...) }

// Excitation returns the circuit's own source phasors at frequency f: the
// DC values at f = 0 (inductors short, capacitors open), otherwise the AC
// magnitudes and phases.
func (a *Analyzer) Excitation(f float64) []complex128 {
	if f == 0 {
		return append([]complex128(nil), a.dc...)
	}
	return append([]complex128(nil), a.ac...)
}

// Solution holds one AC operating point. A Solution returned by Solve
// shares the workspace's solve buffer: it is valid until the next Solve in
// the same Workspace. Extract values before solving again.
type Solution struct {
	Freq float64
	a    *Analyzer
	x    []complex128
}

// node returns the index of a node, or -1 for ground.
func (a *Analyzer) node(name string) int {
	if name == "0" {
		return -1
	}
	return a.nodeIdx[name]
}

// SolverKind reports which backend the analyzer uses: "dense" or "sparse".
func (a *Analyzer) SolverKind() string {
	if a.sparse {
		return "sparse"
	}
	return "dense"
}

// decideSolver picks dense vs sparse for the mode and system and, when
// sparse, compiles the CSC pattern and assembly slots.
func (a *Analyzer) decideSolver(mode linalg.SolverMode) {
	if mode == linalg.ModeAuto {
		mode = linalg.DefaultSolver()
	}
	// Plan lengths over-count the unique cells (stamps accumulate), so
	// this density estimate is conservative: it only ever biases auto
	// toward the dense path.
	a.sparse = linalg.ChooseSparse(mode, a.n, len(a.gPlan)+len(a.bPlan))
	if a.sparse {
		a.compilePattern()
		// Fill-aware refinement: auto falls back to dense when the
		// pattern's projected elimination fill makes sparse the slower
		// backend (dense K-coupling meshes); a forced ModeSparse stands.
		if mode == linalg.ModeAuto && !linalg.SparseWorthwhile(a.n, a.pat.EstFactorFlops()) {
			a.sparse = false
		}
	}
}

// compilePattern compiles the stamp plans' cell indices into a shared CSC
// pattern plus per-entry value slots, and bumps patGen.
func (a *Analyzer) compilePattern() {
	flat := make([]int, 0, len(a.gPlan)+len(a.bPlan))
	for _, e := range a.gPlan {
		flat = append(flat, e.idx)
	}
	for _, e := range a.bPlan {
		flat = append(flat, e.idx)
	}
	pat, slots := linalg.NewPatternFromFlat(a.n, flat)
	a.pat = pat
	a.gSlot = slots[:len(a.gPlan):len(a.gPlan)]
	a.bSlot = slots[len(a.gPlan):]
	a.patGen++
}

// Solve performs one AC analysis at frequency f (Hz) in the workspace w.
// src holds one phasor per independent source in Sources order (see
// Excitation for the circuit's own); the element values are the nominal
// ones or those bound to w by Bind. The returned Solution reuses w's
// buffers and is valid until the next Solve in w.
func (a *Analyzer) Solve(w *Workspace, f float64, src []complex128) (*Solution, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("mna: invalid frequency %g", f)
	}
	if len(src) != len(a.sources) {
		return nil, fmt.Errorf("mna: %d source phasors for %d sources", len(src), len(a.sources))
	}
	engine.CountMNASolve()
	omega := 2 * math.Pi * f
	if w.rhs == nil {
		w.rhs = make([]complex128, a.n)
		w.sol = Solution{a: a, x: make([]complex128, a.n)}
	}
	gPlan, bPlan := a.gPlan, a.bPlan
	if w.bound {
		gPlan, bPlan = w.gPlan, w.bPlan
	}

	// Fused assembly: M = G + jω·B in one pass over the compiled plans —
	// into the flat dense buffer or the pattern's value slots. Plan order
	// is identical either way, so the per-cell accumulation (and thus the
	// rounding) of both backends matches the historic netlist walk.
	engine.CountAssembly()
	var solver linalg.ComplexFactorizer
	var ferr error
	if a.sparse {
		if w.sm == nil || w.gen != a.patGen {
			w.sm = linalg.NewSparseComplex(a.pat)
			w.gen = a.patGen
		}
		v := w.sm.V
		for i := range v {
			v[i] = 0
		}
		for i, e := range gPlan {
			v[a.gSlot[i]] += complex(e.v, 0)
		}
		for i, e := range bPlan {
			v[a.bSlot[i]] += complex(0, omega*e.v)
		}
		ferr = w.sm.Factor(&w.slu)
		solver = &w.slu
	} else {
		if w.m == nil {
			w.m = linalg.NewComplex(a.n)
		}
		buf := w.m.V
		for i := range buf {
			buf[i] = 0
		}
		for _, e := range gPlan {
			buf[e.idx] += complex(e.v, 0)
		}
		for _, e := range bPlan {
			buf[e.idx] += complex(0, omega*e.v)
		}
		ferr = w.m.Factor(&w.lu)
		solver = &w.lu
	}
	if ferr != nil {
		return nil, fmt.Errorf("mna: f=%g Hz: %w", f, ferr)
	}
	for i := range w.rhs {
		w.rhs[i] = 0
	}
	for _, sl := range a.rhsPlan {
		if sl.negative {
			w.rhs[sl.row] -= src[sl.src]
		} else {
			w.rhs[sl.row] += src[sl.src]
		}
	}
	if err := solver.SolveFactored(w.rhs, w.sol.x); err != nil {
		return nil, fmt.Errorf("mna: f=%g Hz: %w", f, err)
	}
	w.sol.Freq = f
	return &w.sol, nil
}

// SetProbeCoupling temporarily sets the mutual coupling between two
// inductors to factor k, applied as a two-entry delta on the compiled B
// plan — no circuit clone, no recompilation. An existing K coupling
// between the pair is overridden for the duration; ClearProbeCoupling
// undoes the probe. Any previous probe is cleared first. The probe
// mutates the Analyzer: no other goroutine may solve against it meanwhile.
func (a *Analyzer) SetProbeCoupling(la, lb string, k float64) error {
	a.ClearProbeCoupling()
	ia, okA := a.branchIdx[la]
	ib, okB := a.branchIdx[lb]
	if !okA || !okB || a.kinds[a.branchElem[ia]] != netlist.L || a.kinds[a.branchElem[ib]] != netlist.L {
		return fmt.Errorf("mna: probe coupling %s/%s: both must be inductors", la, lb)
	}
	m := k * math.Sqrt(a.vals[a.branchElem[ia]]*a.vals[a.branchElem[ib]])
	for ci, cp := range a.couplings {
		if (cp[0] == ia && cp[1] == ib) || (cp[0] == ib && cp[1] == ia) {
			a.probeMode = 1
			a.probeIdx = [2]int{a.couplingPos + 2*ci, a.couplingPos + 2*ci + 1}
			for pi, ei := range a.probeIdx {
				a.probeSaved[pi] = a.bPlan[ei].v
				a.bPlan[ei].v = -m
			}
			return nil
		}
	}
	bi, bj := a.nn+ia, a.nn+ib
	a.probeMode = 2
	a.bPlan = append(a.bPlan,
		planEntry{idx: bi*a.n + bj, v: -m},
		planEntry{idx: bj*a.n + bi, v: -m},
	)
	if a.sparse {
		a.compilePattern()
	}
	return nil
}

// ClearProbeCoupling removes the probe set by SetProbeCoupling, restoring
// the compiled plans. It is a no-op when no probe is active.
func (a *Analyzer) ClearProbeCoupling() {
	switch a.probeMode {
	case 1:
		for pi, ei := range a.probeIdx {
			a.bPlan[ei].v = a.probeSaved[pi]
		}
	case 2:
		a.bPlan = a.bPlan[:a.baseBLen]
		if a.sparse {
			a.compilePattern()
		}
	}
	a.probeMode = 0
}

// NodeVoltage returns the complex voltage of the named node (ground is 0).
func (s *Solution) NodeVoltage(name string) complex128 {
	if name == "0" {
		return 0
	}
	i, ok := s.a.nodeIdx[name]
	if !ok {
		return cmplx.NaN()
	}
	return s.x[i]
}

// BranchCurrent returns the complex current through the named inductor or
// voltage source (flowing N1 → N2), or NaN for other elements.
func (s *Solution) BranchCurrent(name string) complex128 {
	b, ok := s.a.branchIdx[name]
	if !ok {
		return cmplx.NaN()
	}
	return s.x[s.a.nn+b]
}
