package explore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// YieldOptions configures a Monte Carlo tolerance analysis. Zero values
// take the documented defaults.
type YieldOptions struct {
	Samples int   // Monte Carlo builds; 0 = 200
	Batch   int   // builds per parallel wave (emit granularity); 0 = 32
	Seed    int64 // RNG seed — the sample stream is deterministic in it

	MaxFreq float64 // EMI band limit; 0 = CISPR band stop

	DefaultTol  float64            // relative R/L/C tolerance; 0 = 0.10
	CouplingTol float64            // relative tolerance on extracted k; 0 = 0.20
	TolOf       map[string]float64 // per-element overrides (datasheet bands)

	// Exclude skips elements from perturbation (calibrated measurement
	// equipment). nil excludes every element whose name contains "lisn".
	Exclude func(name string) bool
}

// YieldEstimate is the running estimate emitted after each batch.
type YieldEstimate struct {
	Done    int           `json:"done"`
	Total   int           `json:"total"`
	Pass    int           `json:"pass"`
	Yield   float64       `json:"yield"`
	CILo    float64       `json:"ci_lo"`
	CIHi    float64       `json:"ci_hi"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// YieldCurve is the result of a Monte Carlo run: the overall pass yield
// with its Wilson 95% confidence interval, plus the per-frequency-bin
// pass fraction — the EMI yield curve — with per-bin intervals.
type YieldCurve struct {
	Samples int     // builds evaluated
	Pass    int     // builds meeting the limit mask everywhere
	Yield   float64 // Pass / Samples
	CILo    float64 // Wilson 95% interval of the overall yield
	CIHi    float64
	Batches int
	Elapsed time.Duration

	Freqs   []float64 // harmonic grid, ascending (shared by all samples)
	InBand  []bool    // bin overlaps a protected CISPR band
	BinPass []float64 // fraction of builds under the limit per bin (1 out of band)
	BinLo   []float64 // Wilson 95% interval per bin
	BinHi   []float64

	WorstMargins []float64 // per-build worst margin in dB, ascending
	Perturbed    int       // circuit elements that were perturbed
}

// Percentile returns the q-quantile (0..1) of the worst margins.
func (y *YieldCurve) Percentile(q float64) float64 {
	if len(y.WorstMargins) == 0 {
		return 0
	}
	idx := int(q * float64(len(y.WorstMargins)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(y.WorstMargins) {
		idx = len(y.WorstMargins) - 1
	}
	return y.WorstMargins[idx]
}

// perturbation is one circuit element the Monte Carlo jitters.
type perturbation struct {
	idx      int     // index into the base circuit's elements and values
	tol      float64 // relative uniform tolerance
	coupling bool    // K element: clamp to [-1, 1] after jitter
}

// yieldPlan is one Monte Carlo run's compiled state: the coupled base
// circuit's band, its nominal element values, the perturbation set and
// every build's pre-drawn value multipliers.
type yieldPlan struct {
	band     *emi.Band
	nominal  []float64
	perturbs []perturbation
	mults    [][]float64
}

// newYieldPlan validates the tolerance overrides, extracts the couplings
// once from the placement, compiles the coupled circuit's band and draws
// the multipliers of n builds. The random multipliers are drawn serially
// from one seeded rand.Rand, so they depend only on the seed and the
// perturbation set.
func newYieldPlan(ctx context.Context, proj *core.Project, opt YieldOptions, n int) (*yieldPlan, error) {
	defTol := opt.DefaultTol
	if defTol == 0 {
		defTol = 0.10
	}
	kTol := opt.CouplingTol
	if kTol == 0 {
		kTol = 0.20
	}
	exclude := opt.Exclude
	if exclude == nil {
		exclude = func(name string) bool {
			return strings.Contains(strings.ToLower(name), "lisn")
		}
	}
	for name, tol := range opt.TolOf {
		if proj.Circuit.Find(name) == nil {
			return nil, fmt.Errorf("explore: tolerance for unknown element %q", name)
		}
		if tol < 0 || tol >= 1 {
			return nil, fmt.Errorf("explore: tolerance %g for %q out of [0, 1)", tol, name)
		}
	}

	ks, err := proj.ExtractCouplingsCtx(ctx, proj.AllPairs())
	if err != nil {
		return nil, err
	}
	base := proj.CircuitWithCouplings(ks)

	// The perturbation set, in circuit element order.
	p := &yieldPlan{}
	for i, e := range base.Elements {
		switch e.Kind {
		case netlist.R, netlist.L, netlist.C:
			if exclude(e.Name) {
				continue
			}
			tol := defTol
			if t, ok := opt.TolOf[e.Name]; ok {
				tol = t
			}
			if tol <= 0 {
				continue
			}
			p.perturbs = append(p.perturbs, perturbation{idx: i, tol: tol})
		case netlist.K:
			if kTol > 0 {
				p.perturbs = append(p.perturbs, perturbation{idx: i, tol: kTol, coupling: true})
			}
		}
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	p.mults = make([][]float64, n)
	for s := range p.mults {
		row := make([]float64, len(p.perturbs))
		for j, pb := range p.perturbs {
			row[j] = 1 + pb.tol*(2*rng.Float64()-1)
		}
		p.mults[s] = row
	}

	// One compiled band serves every build: only the values change.
	p.band, err = emi.NewBand(base, proj.Sources, proj.MeasureNode, 0, opt.MaxFreq, proj.Solver)
	if err != nil {
		return nil, err
	}
	p.nominal = p.band.Analyzer().Values()
	return p, nil
}

// sampleWorker is one yield worker's state: the perturbed value vector and
// the workspace the values are bound into.
type sampleWorker struct {
	vals []float64
	w    mna.Workspace
}

// sample predicts build s: each perturbed value is its nominal value
// times the build's multiplier (coupling factors clamped to [-1, 1]),
// bound into the worker's workspace.
func (p *yieldPlan) sample(ctx context.Context, sw *sampleWorker, s int) (*emi.Spectrum, error) {
	sw.vals = append(sw.vals[:0], p.nominal...)
	for j, pb := range p.perturbs {
		v := sw.vals[pb.idx] * p.mults[s][j]
		if pb.coupling {
			v = min(max(v, -1), 1)
		}
		sw.vals[pb.idx] = v
	}
	p.band.Analyzer().Bind(&sw.w, sw.vals)
	return p.band.SpectrumCtx(ctx, &sw.w)
}

// Yield runs the Monte Carlo tolerance analysis of a project's coupled
// EMI prediction: couplings are extracted and the coupled circuit's band
// compiled once, then opt.Samples builds are drawn by perturbing every
// perturbable element value uniformly within its tolerance band and
// predicting the spectrum. The multipliers are drawn before any
// evaluation starts, so the curve is bit-reproducible for a fixed seed
// regardless of worker scheduling; the builds themselves fan out over the
// engine pool in batches, and emit (optional) receives a running estimate
// after every batch.
func Yield(ctx context.Context, proj *core.Project, opt YieldOptions, emit func(YieldEstimate)) (*YieldCurve, error) {
	n := opt.Samples
	if n <= 0 {
		n = 200
	}
	batch := opt.Batch
	if batch <= 0 {
		batch = 32
	}
	start := time.Now()
	ctx, sp := obs.Start(ctx, "explore.yield")
	sp.Int("samples", int64(n))
	defer sp.End()

	plan, err := newYieldPlan(ctx, proj, opt, n)
	if err != nil {
		return nil, err
	}
	freqs := plan.band.Freqs()
	inBand := make([]bool, len(freqs))
	nInBand := 0
	for i, f := range freqs {
		_, inBand[i] = emi.Limit(f)
		if inBand[i] {
			nInBand++
		}
	}
	if nInBand == 0 {
		return nil, fmt.Errorf("explore: no harmonic overlaps a protected band below %g Hz", opt.MaxFreq)
	}

	out := &YieldCurve{
		Samples:   n,
		Freqs:     freqs,
		InBand:    inBand,
		Perturbed: len(plan.perturbs),
	}
	binPass := make([]int, len(freqs))

	type sampleOut struct {
		pass   []bool // per-bin level <= limit (true out of band)
		margin float64
	}
	for off := 0; off < n; off += batch {
		size := batch
		if off+size > n {
			size = n - off
		}
		_, bsp := obs.Start(ctx, "explore.yield.batch")
		bsp.Int("size", int64(size))
		done := engine.Phase("explore.yield.batch")
		results := make([]sampleOut, size)
		err := engine.ForEachStateCtx(ctx, size,
			func() (*sampleWorker, error) { return &sampleWorker{}, nil },
			func(sw *sampleWorker, i int) error {
				spec, err := plan.sample(ctx, sw, off+i)
				if err != nil {
					return err
				}
				so := sampleOut{pass: make([]bool, len(spec.Freqs)), margin: spec.WorstMargin()}
				for k, f := range spec.Freqs {
					limit, in := emi.Limit(f)
					so.pass[k] = !in || spec.DB[k] <= limit
				}
				results[i] = so
				return nil
			})
		done()
		bsp.End()
		if err != nil {
			return nil, err
		}
		for _, so := range results {
			allPass := true
			for k, ok := range so.pass {
				if ok {
					binPass[k]++
				} else {
					allPass = false
				}
			}
			if allPass {
				out.Pass++
			}
			out.WorstMargins = append(out.WorstMargins, so.margin)
		}
		out.Batches++
		if emit != nil {
			done := off + size
			lo, hi := wilson(out.Pass, done)
			emit(YieldEstimate{
				Done: done, Total: n, Pass: out.Pass,
				Yield: float64(out.Pass) / float64(done),
				CILo:  lo, CIHi: hi,
				Elapsed: time.Since(start),
			})
		}
	}

	out.Yield = float64(out.Pass) / float64(n)
	out.CILo, out.CIHi = wilson(out.Pass, n)
	out.BinPass = make([]float64, len(freqs))
	out.BinLo = make([]float64, len(freqs))
	out.BinHi = make([]float64, len(freqs))
	for k := range freqs {
		out.BinPass[k] = float64(binPass[k]) / float64(n)
		out.BinLo[k], out.BinHi[k] = wilson(binPass[k], n)
	}
	sort.Float64s(out.WorstMargins)
	out.Elapsed = time.Since(start)
	return out, nil
}

// wilson returns the Wilson score 95% confidence interval of a binomial
// proportion — well-behaved at the 0 and 1 boundaries Monte Carlo yield
// estimates live near.
func wilson(pass, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054 // Φ⁻¹(0.975)
	p := float64(pass) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := p + z*z/(2*nn)
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	return (center - half) / denom, (center + half) / denom
}
