package explore

import (
	"context"
	"math"
	"testing"

	"repro/internal/buck"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/linalg"
)

// TestYieldBindingMatchesClone checks the yield's value binding against
// its reference: a build predicted by binding its perturbed values into a
// reused workspace of the run's one compiled band must equal, bit for
// bit, a Predictor run on a clone of the coupled circuit with the build's
// values written into its elements — for seeds 1–8, under the dense and
// the sparse solver. The engine runs serially because a sparse
// Predictor's last bits depend on how harmonics are spread over workers.
func TestYieldBindingMatchesClone(t *testing.T) {
	defer engine.SetMaxParallelism(engine.SetMaxParallelism(1))
	ctx := context.Background()
	proj := buck.Project()
	if err := buck.Unfavorable(proj); err != nil {
		t.Fatal(err)
	}
	ks, err := proj.ExtractCouplingsCtx(ctx, proj.AllPairs())
	if err != nil {
		t.Fatal(err)
	}
	base := proj.CircuitWithCouplings(ks)
	const samples = 2
	for _, mode := range []linalg.SolverMode{linalg.ModeDense, linalg.ModeSparse} {
		proj.Solver = mode
		for seed := int64(1); seed <= 8; seed++ {
			opt := YieldOptions{Seed: seed, MaxFreq: 30e6}
			plan, err := newYieldPlan(ctx, proj, opt, samples)
			if err != nil {
				t.Fatal(err)
			}
			var sw sampleWorker
			for s := 0; s < samples; s++ {
				got, err := plan.sample(ctx, &sw, s)
				if err != nil {
					t.Fatal(err)
				}
				ckt := base.Clone()
				for j, pb := range plan.perturbs {
					e := ckt.Elements[pb.idx]
					if pb.coupling {
						e.Coup *= plan.mults[s][j]
						if e.Coup > 1 {
							e.Coup = 1
						} else if e.Coup < -1 {
							e.Coup = -1
						}
					} else {
						e.Value *= plan.mults[s][j]
					}
				}
				want, err := (&emi.Predictor{
					Circuit: ckt, Sources: proj.Sources, MeasureNode: proj.MeasureNode,
					MaxFreq: opt.MaxFreq, Solver: mode,
				}).SpectrumCtx(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for k := range want.DB {
					if got.Freqs[k] != want.Freqs[k] || math.Float64bits(got.DB[k]) != math.Float64bits(want.DB[k]) {
						t.Fatalf("%v seed %d build %d harmonic %d: bound %v dB at %v Hz, clone %v dB at %v Hz",
							mode, seed, s, k, got.DB[k], got.Freqs[k], want.DB[k], want.Freqs[k])
					}
				}
			}
		}
	}
}
