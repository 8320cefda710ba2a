package repro

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buck"
	"repro/internal/core"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/linalg"
	"repro/internal/workload/board"
)

// numericsGolden is the full-precision fingerprint of the numerics
// corpus: one line per output quantity with its name, the hex bits of
// the float64 and a %.17g rendering for reading.
const numericsGolden = "testdata/numerics.golden"

// fingerprint collects named float64 outputs in emission order.
type fingerprint struct{ b strings.Builder }

func (fp *fingerprint) add(name string, v float64) {
	fmt.Fprintf(&fp.b, "%s %016x %.17g\n", name, math.Float64bits(v), v)
}

func (fp *fingerprint) addAll(name string, vs []float64) {
	for i, v := range vs {
		fp.add(fmt.Sprintf("%s[%d]", name, i), v)
	}
}

func (fp *fingerprint) spectrum(name string, s *emi.Spectrum) {
	fp.addAll(name+".freq", s.Freqs)
	fp.addAll(name+".db", s.DB)
}

// couplings records an extraction result in sorted pair order.
func (fp *fingerprint) couplings(name string, ks map[[2]string]float64) {
	pairs := make([][2]string, 0, len(ks))
	for p := range ks {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		fp.add(name+"."+p[0]+"-"+p[1], ks[p])
	}
}

// numericsCorpus runs the fixed corpus: the buck prediction with and
// without couplings, the 500-segment board under both solvers, coupling
// extraction exact and hierarchical, the sensitivity ranking, a
// 16-sample yield and a small explore front.
func numericsCorpus(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var fp fingerprint

	unfav := buck.Project()
	if err := buck.Unfavorable(unfav); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  core.PredictOptions
	}{
		{"buck.uncoupled", core.PredictOptions{}},
		{"buck.coupled", core.PredictOptions{WithCouplings: true}},
	} {
		s, err := unfav.PredictCtx(ctx, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		fp.spectrum(c.name, s)
	}

	for _, theta := range []float64{0, 0.3} {
		p := board.Project(500)
		p.CouplingTheta = theta
		ks, err := p.ExtractCouplingsCtx(ctx, p.AllPairs())
		if err != nil {
			t.Fatal(err)
		}
		fp.couplings(fmt.Sprintf("board500.k.theta%g", theta), ks)
	}
	for _, c := range []struct {
		name string
		mode linalg.SolverMode
	}{{"dense", linalg.ModeDense}, {"sparse", linalg.ModeSparse}} {
		p := board.Project(500)
		p.Solver = c.mode
		s, err := p.PredictCtx(ctx, core.PredictOptions{
			WithCouplings: true,
			Pairs:         board.NeighborPairs(p, 0.05),
			MaxFreq:       5e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp.spectrum("board500."+c.name, s)
	}

	rank, err := unfav.RankCouplingsCtx(ctx, 0.01, 30e6)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rank {
		fp.add(fmt.Sprintf("rank[%d].%s-%s", i, r.LA, r.LB), r.DeltaDB)
	}

	curve, err := explore.Yield(ctx, unfav, explore.YieldOptions{
		Samples: 16, Batch: 6, Seed: 7, MaxFreq: 2e6,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp.addAll("yield.freq", curve.Freqs)
	fp.addAll("yield.binpass", curve.BinPass)
	fp.addAll("yield.worst", curve.WorstMargins)
	fp.add("yield.yield", curve.Yield)

	prob := &explore.DesignProblem{
		Project:    buck.Project(),
		Objectives: []string{explore.ObjMargin, explore.ObjArea},
		Sweep:      []explore.SweepParam{{Element: "CCIN1", Lo: 0.5, Hi: 2}},
		MaxFreq:    2e6,
	}
	res, err := explore.Run(ctx, prob, explore.Config{Pop: 4, Generations: 1, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ind := range res.Front {
		fp.addAll(fmt.Sprintf("front[%d].genes", i), ind.Genes)
		fp.addAll(fmt.Sprintf("front[%d].obj", i), ind.Objectives)
	}
	return fp.b.String()
}

// TestNumericsGolden pins every output of the numerics corpus to the
// bit against the committed fingerprint, which is generated serially,
// and checks that engine parallelism 4 reproduces it. Regenerate with
// UPDATE_GOLDEN=1 after a deliberate numerics change.
func TestNumericsGolden(t *testing.T) {
	defer engine.SetMaxParallelism(engine.SetMaxParallelism(1))
	serial := numericsCorpus(t)
	engine.SetMaxParallelism(4)
	compareNumerics(t, "parallelism 4 vs 1", numericsCorpus(t), serial)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(numericsGolden, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(numericsGolden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
	}
	compareNumerics(t, "golden", serial, string(want))
}

// scheduleDependent names the quantities whose last bits depend on how
// harmonics are spread over workers: a sparse LU workspace replays the
// pivot order of the first harmonic it factored, so under parallelism the
// sparse spectrum is reproducible only to roundoff. Against the serial
// golden they are compared bit for bit like every other line.
const scheduleDependent = "board500.sparse.db["

// compareNumerics fails on the first line of got that differs from want.
// Across parallelism levels, schedule-dependent levels must agree within
// 1e-4 dB (observed: 6e-6 dB on the 500-segment board), three orders
// below the 0.1 dB the figures print.
func compareNumerics(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", what, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] == wl[i] {
			continue
		}
		gf, wf := strings.Fields(gl[i]), strings.Fields(wl[i])
		if what != "golden" && len(gf) == 3 && len(wf) == 3 && gf[0] == wf[0] &&
			strings.HasPrefix(gf[0], scheduleDependent) {
			g, _ := strconv.ParseFloat(gf[2], 64)
			w, _ := strconv.ParseFloat(wf[2], 64)
			if math.Abs(g-w) <= 1e-4 {
				continue
			}
		}
		t.Fatalf("%s: numerics drifted at line %d:\n got %s\nwant %s", what, i+1, gl[i], wl[i])
	}
}
