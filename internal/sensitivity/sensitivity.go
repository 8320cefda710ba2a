// Package sensitivity implements the paper's sensitivity analysis: probe
// coupling factors are inserted pairwise between the circuit's inductances
// and their influence on the emitted interference is ranked. Only the
// top-ranked pairs then need a 3D field simulation, which is what makes the
// electromagnetic calculation of a whole circuit feasible.
package sensitivity

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// PairInfluence records how strongly a probe coupling between two inductors
// raises the conducted emissions.
type PairInfluence struct {
	LA, LB  string  // inductor element names
	DeltaDB float64 // worst-case emission increase across the band, dB
}

// Ranking is the result list, sorted by descending influence.
type Ranking []PairInfluence

// Options configures the analysis.
type Options struct {
	ProbeK     float64  // probe coupling factor; 0 = 0.01
	MaxFreq    float64  // 0 = CISPR band stop
	Candidates []string // inductors to consider; nil = all in the circuit
}

// Rank inserts ProbeK between every candidate inductor pair (one pair at a
// time), predicts the spectrum, and ranks pairs by the worst-case emission
// increase relative to the uncoupled baseline.
func Rank(ckt *netlist.Circuit, sourceName, measureNode string, opt Options) (Ranking, error) {
	return RankCtx(context.Background(), ckt, sourceName, measureNode, opt)
}

// RankCtx is Rank with cancellation: once ctx is done no further pair
// predictions start and the context's error is returned.
func RankCtx(ctx context.Context, ckt *netlist.Circuit, sourceName, measureNode string, opt Options) (Ranking, error) {
	probe := opt.ProbeK
	if probe == 0 {
		probe = 0.01
	}
	cands := opt.Candidates
	if cands == nil {
		cands = ckt.Inductors()
	}
	if len(cands) < 2 {
		return nil, fmt.Errorf("sensitivity: need at least two candidate inductors, have %d", len(cands))
	}
	for _, n := range cands {
		if e := ckt.Find(n); e == nil || e.Kind != netlist.L {
			return nil, fmt.Errorf("sensitivity: candidate %q is not an inductor", n)
		}
	}

	baseline := &emi.Predictor{
		Circuit:     ckt,
		Sources:     []string{sourceName},
		MeasureNode: measureNode,
		MaxFreq:     opt.MaxFreq,
	}
	base, err := baseline.SpectrumCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("sensitivity: baseline: %w", err)
	}

	// One full band prediction per pair — the hot path of the analysis.
	// Each worker compiles one BandSolver (circuit clone + stamp plans)
	// and re-predicts per pair by applying the probe as a two-entry delta
	// on the compiled B plan: no per-pair circuit clone, no analyzer
	// rebuild. The pairs are independent and share the read-only
	// baseline, so they fan out over the engine pool; each pair writes
	// only its own slot and the stable sort below keeps ties in pair
	// order, making the ranking identical under any parallelism.
	defer engine.Phase("sensitivity.rank")()
	var pairs [][2]string
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			pairs = append(pairs, [2]string{cands[i], cands[j]})
		}
	}
	ctx, sp := obs.Start(ctx, "sensitivity.rank")
	sp.Int("pairs", int64(len(pairs)))
	sp.Int("candidates", int64(len(cands)))
	defer sp.End()
	rank := make(Ranking, len(pairs))
	err = engine.ForEachStateCtx(ctx, len(pairs),
		func() (*emi.BandSolver, error) {
			return emi.NewBandSolver(ckt, []string{sourceName}, measureNode, 0, opt.MaxFreq)
		},
		func(bs *emi.BandSolver, i int) error {
			la, lb := pairs[i][0], pairs[i][1]
			if err := bs.Analyzer().SetProbeCoupling(la, lb, probe); err != nil {
				return fmt.Errorf("sensitivity: pair %s/%s: %w", la, lb, err)
			}
			s, err := bs.SpectrumCtx(ctx)
			bs.Analyzer().ClearProbeCoupling()
			if err != nil {
				return fmt.Errorf("sensitivity: pair %s/%s: %w", la, lb, err)
			}
			delta := 0.0
			for k := range s.DB {
				if d := s.DB[k] - base.DB[k]; d > delta {
					delta = d
				}
			}
			rank[i] = PairInfluence{LA: la, LB: lb, DeltaDB: delta}
			return nil
		})
	if err != nil {
		return nil, err
	}
	out := rank
	sort.SliceStable(out, func(a, b int) bool { return out[a].DeltaDB > out[b].DeltaDB })
	return out, nil
}

// Relevant returns the pairs whose influence exceeds the threshold — the
// pairs for which 3D coupling extraction is worthwhile.
func (r Ranking) Relevant(thresholdDB float64) Ranking {
	var out Ranking
	for _, p := range r {
		if p.DeltaDB >= thresholdDB {
			out = append(out, p)
		}
	}
	return out
}

// Pairs returns the (LA, LB) names in ranked order.
func (r Ranking) Pairs() [][2]string {
	out := make([][2]string, len(r))
	for i, p := range r {
		out[i] = [2]string{p.LA, p.LB}
	}
	return out
}
