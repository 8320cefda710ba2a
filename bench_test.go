// Benchmarks regenerating the paper's figures (one per figure, see
// DESIGN.md §4) plus the ablations of §5. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/buck"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/linalg"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/peec"
	"repro/internal/place"
	"repro/internal/rules"
	"repro/internal/sensitivity"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/transient"
	"repro/internal/workload"
	"repro/internal/workload/board"
)

// --- Figure benchmarks -------------------------------------------------

// BenchmarkFig05CapCoupling measures one coupling-factor evaluation of the
// Figure 5 sweep (two X2 capacitors, parallel axes).
func BenchmarkFig05CapCoupling(b *testing.B) {
	m := components.NewX2Cap("X2", 1.5e-6)
	ia := &components.Instance{Ref: "C1", Model: m}
	ib := &components.Instance{Ref: "C2", Model: m, Center: geom.V2(0, 0.03)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		components.CouplingFactor(ia, ib, peec.DefaultOrder)
	}
}

// BenchmarkFig06RotationRule measures the PEMD derivation of Figure 6.
func BenchmarkFig06RotationRule(b *testing.B) {
	m := components.NewX2Cap("X2", 1.5e-6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rules.DerivePEMD(m, m, rules.DeriveOptions{KMax: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig07ChokeCoupling measures a bobbin-choke pair coupling of
// Figure 7 (full winding discretisation).
func BenchmarkFig07ChokeCoupling(b *testing.B) {
	small := components.NewBobbinChoke("s", 10, 3e-3)
	big := components.NewBobbinChoke("b", 10, 5e-3)
	ia := &components.Instance{Ref: "L1", Model: small}
	ib := &components.Instance{Ref: "L2", Model: big, Center: geom.V2(0.03, 0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		components.CouplingFactor(ia, ib, peec.DefaultOrder)
	}
}

// BenchmarkFig08CMChokeMap measures one effective-coupling evaluation of
// the Figure 8 position scan (phasor-weighted winding mutuals).
func BenchmarkFig08CMChokeMap(b *testing.B) {
	cm := components.NewCMChoke3("CM3")
	victim := components.NewX2Cap("X2", 1e-6).Conductor(0).Translate(geom.V3(0.035, 0, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cm.EffectiveCouplingTo(victim, 0, peec.DefaultOrder)
	}
}

// BenchmarkFig09AutoPlace29 measures the paper's headline placement
// experiment: 29 devices, 100 minimum distances, 3 functional groups.
func BenchmarkFig09AutoPlace29(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := workload.Complex29()
		if _, err := place.AutoPlace(d, place.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13NoCoupling measures the full-band emission prediction of
// the buck converter with couplings neglected (Figure 13).
func BenchmarkFig13NoCoupling(b *testing.B) {
	p := buck.Project()
	if err := buck.Unfavorable(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(core.PredictOptions{WithCouplings: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14WithCoupling measures the coupled prediction of Figure 14
// including the PEEC extraction of all 28 pair couplings.
func BenchmarkFig14WithCoupling(b *testing.B) {
	p := buck.Project()
	if err := buck.Unfavorable(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(core.PredictOptions{WithCouplings: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig02OptimizedEmission measures the rule-honouring placement +
// emission check that produces Figure 2.
func BenchmarkFig02OptimizedEmission(b *testing.B) {
	ref := buck.Project()
	if err := buck.Unfavorable(ref); err != nil {
		b.Fatal(err)
	}
	if _, err := buck.DeriveAllRules(ref, 0.01, 3, 0.01); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := buck.Project()
		p.Design.Rules = ref.Design.Rules
		if _, err := buck.Optimize(p); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Predict(core.PredictOptions{WithCouplings: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16BuckAutoPlace isolates the automatic placement of the buck
// board (the paper reports < 1 s).
func BenchmarkFig16BuckAutoPlace(b *testing.B) {
	ref := buck.Project()
	if err := buck.Unfavorable(ref); err != nil {
		b.Fatal(err)
	}
	if _, err := buck.DeriveAllRules(ref, 0.01, 3, 0.01); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := buck.Project()
		p.Design.Rules = ref.Design.Rules
		if _, err := buck.Optimize(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) --------------------------------

// Neumann quadrature order: accuracy/speed trade of the mutual-inductance
// integral between two choke windings.
func benchmarkNeumannOrder(b *testing.B, order int) {
	l1 := components.NewBobbinChoke("a", 10, 4e-3).Conductor(0)
	l2 := components.NewBobbinChoke("b", 10, 4e-3).Conductor(0).Translate(geom.V3(0.025, 0, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		peec.Mutual(l1, l2, order)
	}
}

func BenchmarkAblationNeumannOrder2(b *testing.B)  { benchmarkNeumannOrder(b, 2) }
func BenchmarkAblationNeumannOrder8(b *testing.B)  { benchmarkNeumannOrder(b, 8) }
func BenchmarkAblationNeumannOrder16(b *testing.B) { benchmarkNeumannOrder(b, 16) }

// Rotation step on/off: feasibility and speed of the 29-device placement.
func BenchmarkAblationRotationOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := workload.Complex29()
		// Without step 1 the full parallel-axis EMD sum may not fit; the
		// error is part of the measured behaviour.
		_, _ = place.AutoPlace(d, place.Options{SkipRotation: true})
	}
}

// Candidate raster density: runtime vs grid step.
func benchmarkGrid(b *testing.B, stepMM float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := workload.Complex29()
		if _, err := place.AutoPlace(d, place.Options{GridStep: stepMM * 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGrid2mm(b *testing.B) { benchmarkGrid(b, 2) }
func BenchmarkAblationGrid4mm(b *testing.B) { benchmarkGrid(b, 4) }

// Sequential placement alone vs with simulated-annealing refinement: the
// quality/runtime trade of the global heuristic (wirelength+compactness
// cost is reported per op via custom metrics).
func BenchmarkAblationSequentialOnly(b *testing.B) {
	b.ReportAllocs()
	cost := 0.0
	for i := 0; i < b.N; i++ {
		d := workload.Complex29()
		if _, err := place.AutoPlace(d, place.Options{}); err != nil {
			b.Fatal(err)
		}
		for _, n := range d.Nets {
			cost += d.NetLength(n)
		}
	}
	b.ReportMetric(cost/float64(b.N)*1e3, "mm-wirelength/op")
}

func BenchmarkAblationSequentialPlusAnneal(b *testing.B) {
	b.ReportAllocs()
	cost := 0.0
	for i := 0; i < b.N; i++ {
		d := workload.Complex29()
		if _, err := place.AutoPlace(d, place.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := place.Anneal(d, 0, place.AnnealOptions{Seed: 42, Iterations: 4000}); err != nil {
			b.Fatal(err)
		}
		for _, n := range d.Nets {
			cost += d.NetLength(n)
		}
	}
	b.ReportMetric(cost/float64(b.N)*1e3, "mm-wirelength/op")
}

// Sensitivity pruning on/off: number of field extractions needed.
func BenchmarkAblationSensitivityPruning(b *testing.B) {
	p := buck.Project()
	if err := buck.Unfavorable(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rank, err := p.RankCouplings(0.01, 30e6)
		if err != nil {
			b.Fatal(err)
		}
		pairs := rank.Relevant(3).Pairs()
		if _, err := p.ExtractCouplings(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoPruning(b *testing.B) {
	p := buck.Project()
	if err := buck.Unfavorable(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.ExtractCouplings(p.AllPairs()); err != nil {
			b.Fatal(err)
		}
	}
}

// Placement runtime scaling with device count (fixed rule/group density).
func benchmarkPlaceScaling(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := workload.Synthetic(n, 3*n, 3, 0.2, 0.16)
		if _, err := place.AutoPlace(d, place.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceScaling10(b *testing.B) { benchmarkPlaceScaling(b, 10) }
func BenchmarkPlaceScaling20(b *testing.B) { benchmarkPlaceScaling(b, 20) }
func BenchmarkPlaceScaling40(b *testing.B) { benchmarkPlaceScaling(b, 40) }

// --- Engine benchmarks -------------------------------------------------

// BenchmarkSensitivityRank measures the full pairwise sensitivity ranking
// of the buck converter's inductances — one band prediction per pair,
// fanned out over the engine pool.
func BenchmarkSensitivityRank(b *testing.B) {
	p := buck.Project()
	if err := buck.Unfavorable(p); err != nil {
		b.Fatal(err)
	}
	ckt := p.Circuit.Clone()
	ckt.RemoveCouplings()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sensitivity.RankCtx(context.Background(), ckt, p.Sources[0], p.MeasureNode,
			sensitivity.Options{MaxFreq: 30e6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCouplingCacheHit measures a coupling-factor evaluation served
// from the engine's memo cache (contrast with BenchmarkFig05CapCoupling's
// first-evaluation cost when the cache is cold per geometry).
func BenchmarkCouplingCacheHit(b *testing.B) {
	m := components.NewX2Cap("X2", 1.5e-6)
	ia := &components.Instance{Ref: "C1", Model: m}
	ib := &components.Instance{Ref: "C2", Model: m, Center: geom.V2(0, 0.03)}
	engine.ResetCache()
	components.CouplingFactor(ia, ib, peec.DefaultOrder) // warm the cache
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		components.CouplingFactor(ia, ib, peec.DefaultOrder)
	}
}

// --- Substrate benchmarks ----------------------------------------------

// BenchmarkMNASolve measures one AC solve of the buck EMI circuit.
func BenchmarkMNASolve(b *testing.B) {
	p := buck.Project()
	an, err := mna.NewAnalyzer(p.Circuit, linalg.ModeAuto)
	if err != nil {
		b.Fatal(err)
	}
	var w mna.Workspace
	src := an.Excitation(1e6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := an.Solve(&w, 1e6, src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkMNALadder measures repeated AC solves of a 450-stage filter
// ladder (n ≈ 1350 unknowns) under a forced factorization backend — the
// system shape where the sparse LU's near-linear fill pays off.
func benchmarkMNALadder(b *testing.B, mode linalg.SolverMode) {
	c := &netlist.Circuit{}
	c.AddV("Vin", "n0", "0", netlist.Source{ACMag: 1})
	prev := "n0"
	for s := 0; s < 450; s++ {
		node := "n" + strconv.Itoa(s+1)
		c.AddL("L"+strconv.Itoa(s), prev, node, 1e-6)
		c.AddC("C"+strconv.Itoa(s), node, "0", 1e-7)
		c.AddR("R"+strconv.Itoa(s), node, "0", 1e3)
		prev = node
	}
	c.AddR("RL", prev, "0", 4)
	an, err := mna.NewAnalyzer(c, mode)
	if err != nil {
		b.Fatal(err)
	}
	var w mna.Workspace
	src := an.Excitation(1e5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := an.Solve(&w, 1e5*float64(i%20+1), src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMNASolveDense(b *testing.B)  { benchmarkMNALadder(b, linalg.ModeDense) }
func BenchmarkMNASolveSparse(b *testing.B) { benchmarkMNALadder(b, linalg.ModeSparse) }

// benchmarkExtractCouplings measures full mutual-coupling extraction on a
// ~500-segment parametric board, exact all-pairs versus the hierarchical
// tree evaluator. The engine memo cache is reset every iteration so each
// run pays the real extraction cost.
func benchmarkExtractCouplings(b *testing.B, theta float64) {
	p := board.Project(500)
	p.CouplingTheta = theta
	pairs := p.AllPairs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.ResetCache()
		if _, err := p.ExtractCouplings(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractCouplingsExact(b *testing.B) { benchmarkExtractCouplings(b, 0) }
func BenchmarkExtractCouplingsHier(b *testing.B)  { benchmarkExtractCouplings(b, 0.3) }

// BenchmarkTransientBuckPeriod measures simulating one switching period of
// a discrete buck power stage in the time domain.
func BenchmarkTransientBuckPeriod(b *testing.B) {
	c := &netlist.Circuit{}
	c.AddV("Vin", "in", "0", netlist.Source{DC: 12})
	c.AddSwitch("S1", "in", "sw", 0.01, 1e7, netlist.Schedule{Period: 5e-6, OnTime: 2e-6})
	c.AddDiode("D1", "0", "sw", 0.01, 1e7)
	c.AddL("L1", "sw", "out", 47e-6)
	c.AddC("C1", "out", "0", 47e-6)
	c.AddR("RL", "out", "0", 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transient.Simulate(c, transient.Options{Step: 25e-9, End: 5e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBodyCapacitance measures one panel-method coupling capacitance
// (extension figure 19).
func BenchmarkBodyCapacitance(b *testing.B) {
	m := components.NewX2Cap("X2", 1.5e-6)
	ia := &components.Instance{Ref: "C1", Model: m}
	ib := &components.Instance{Ref: "C2", Model: m, Center: geom.V2(0.025, 0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := components.BodyCapacitance(ia, ib, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectrumDBuV measures the dBµV conversion hot path.
func BenchmarkSpectrumDBuV(b *testing.B) {
	b.ReportAllocs()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += emi.DBuV(math.Abs(math.Sin(float64(i))) * 1e-3)
	}
	_ = sink
}

// --- Incremental session benchmarks (PR 4) -----------------------------

// sessionFixture builds an auto-placed Complex29 session for the
// incremental-edit benchmarks and the component it toggles.
func sessionFixture(b *testing.B) (*session.Session, layout.Component) {
	b.Helper()
	d := workload.Complex29()
	if _, err := place.AutoPlace(d, place.Options{}); err != nil {
		b.Fatal(err)
	}
	s := session.New("bench", d)
	c, ok := s.Component("U05")
	if !ok {
		b.Fatal("U05 missing from Complex29")
	}
	return s, c
}

// BenchmarkSessionEditIncremental measures one single-component move
// through the session's dependency-indexed incremental recheck on the
// Figure 9 Complex29 workload.
func BenchmarkSessionEditIncremental(b *testing.B) {
	s, c := sessionFixture(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dx := 2e-3
		if i%2 == 1 {
			dx = -2e-3
		}
		if _, err := s.Apply(session.Edit{
			Op: session.OpMove, Ref: c.Ref,
			Center: geom.V2(c.Center.X+dx, c.Center.Y), Rot: c.Rot,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEditFull is the baseline: the same move followed by a
// from-scratch drc.Check of the whole design.
func BenchmarkSessionEditFull(b *testing.B) {
	d := workload.Complex29()
	if _, err := place.AutoPlace(d, place.Options{}); err != nil {
		b.Fatal(err)
	}
	c := d.Find("U05")
	if c == nil {
		b.Fatal("U05 missing from Complex29")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dx := 2e-3
		if i%2 == 1 {
			dx = -2e-3
		}
		c.Center = geom.V2(c.Center.X+dx, c.Center.Y)
		if rep := drc.Check(d); rep.Checks == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkSessionEditJournaled is the durability overhead benchmark
// (PR 6): the same incremental move with every edit written ahead to a
// FileStore WAL (fsync off — the SIGKILL-survival configuration the soak
// harness runs). The acceptance criterion is ≤2× of
// BenchmarkSessionEditIncremental.
func BenchmarkSessionEditJournaled(b *testing.B) {
	st, err := store.OpenFile(b.TempDir(), store.SyncOff)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s, c := sessionFixture(b)
	defer s.Close()
	snap, seq, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	if err := st.CreateSession(s.ID, seq, snap); err != nil {
		b.Fatal(err)
	}
	s.SetJournal(func(rec session.JournalRecord) error {
		_, err := st.AppendEdit(s.ID, rec)
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dx := 2e-3
		if i%2 == 1 {
			dx = -2e-3
		}
		if _, err := s.Apply(session.Edit{
			Op: session.OpMove, Ref: c.Ref,
			Center: geom.V2(c.Center.X+dx, c.Center.Y), Rot: c.Rot,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionEditEvalRatio pins the acceptance criterion of the session
// subsystem: a single-component move on Complex29 must re-evaluate fewer
// than 25% of the rule units a full drc.Check covers.
func TestSessionEditEvalRatio(t *testing.T) {
	d := workload.Complex29()
	if _, err := place.AutoPlace(d, place.Options{}); err != nil {
		t.Fatal(err)
	}
	s := session.New("t", d)
	defer s.Close()
	c, ok := s.Component("U05")
	if !ok {
		t.Fatal("U05 missing from Complex29")
	}
	delta, err := s.Apply(session.Edit{
		Op: session.OpMove, Ref: c.Ref,
		Center: geom.V2(c.Center.X+2e-3, c.Center.Y), Rot: c.Rot,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(delta.ChecksEvaluated) / float64(delta.ChecksFull)
	t.Logf("incremental move evaluated %d of %d checks (%.1f%%)",
		delta.ChecksEvaluated, delta.ChecksFull, 100*ratio)
	if ratio >= 0.25 {
		t.Fatalf("incremental edit evaluated %.1f%% of the full check, want < 25%%", 100*ratio)
	}
}

// --- Tracing overhead benchmarks (PR 5) --------------------------------

// BenchmarkSensitivityRankTraced is BenchmarkSensitivityRank with a span
// collection attached to the context — the enabled-tracing counterpart
// whose delta against the untraced run pins the observability overhead
// (scripts/bench.sh records both into BENCH_pr5.json).
func BenchmarkSensitivityRankTraced(b *testing.B) {
	p := buck.Project()
	if err := buck.Unfavorable(p); err != nil {
		b.Fatal(err)
	}
	ckt := p.Circuit.Clone()
	ckt.RemoveCouplings()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("bench")
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := sensitivity.RankCtx(ctx, ckt, p.Sources[0], p.MeasureNode,
			sensitivity.Options{MaxFreq: 30e6}); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// BenchmarkSessionEditIncrementalTraced is BenchmarkSessionEditIncremental
// with per-edit tracing enabled (session.edit, drc.recheck and
// peec.recouple spans recorded per iteration).
func BenchmarkSessionEditIncrementalTraced(b *testing.B) {
	s, c := sessionFixture(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("bench")
		ctx := obs.WithTrace(context.Background(), tr)
		dx := 2e-3
		if i%2 == 1 {
			dx = -2e-3
		}
		if _, err := s.ApplyCtx(ctx, session.Edit{
			Op: session.OpMove, Ref: c.Ref,
			Center: geom.V2(c.Center.X+dx, c.Center.Y), Rot: c.Rot,
		}); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// --- PR 7: design-space exploration ------------------------------------

// BenchmarkExploreGeneration measures one NSGA-II generation of placement
// tournaments on the buck converter with the geometric objectives (area,
// net length, DRC violations) — the per-generation unit of work behind
// POST /v1/explore.
func BenchmarkExploreGeneration(b *testing.B) {
	prob := &explore.DesignProblem{
		Project:    buck.Project(),
		Objectives: []string{explore.ObjArea, explore.ObjNet, explore.ObjViolations},
	}
	if err := prob.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.Run(context.Background(), prob, explore.Config{
			Pop: 8, Generations: 1, Seed: int64(i),
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
	}
	b.ReportMetric(float64(b.N*16)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkYieldBatch measures one Monte-Carlo batch of EMI yield
// evaluation (8 perturbed builds, band-limited spectrum each) — the unit
// of work behind POST /v1/yield.
func BenchmarkYieldBatch(b *testing.B) {
	proj := buck.Project()
	if _, err := place.AutoPlace(proj.Design, place.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, err := explore.Yield(context.Background(), proj, explore.YieldOptions{
			Samples: 8, Batch: 8, Seed: int64(i), MaxFreq: 2e6,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if curve.Batches != 1 {
			b.Fatalf("batches = %d", curve.Batches)
		}
	}
	b.ReportMetric(float64(b.N*8)/b.Elapsed().Seconds(), "builds/s")
}
