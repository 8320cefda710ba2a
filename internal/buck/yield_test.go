package buck

import (
	"context"
	"testing"

	"repro/internal/explore"
)

// TestToleranceYield turns the paper's "statement on achievable
// performance with the given components" into numbers: the optimised
// layout keeps a solid pass yield under 10 % component and 20 % coupling
// tolerances, while the unfavourable layout fails every sample.
func TestToleranceYield(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("Monte-Carlo run")
	}
	unfav := Project()
	if err := Unfavorable(unfav); err != nil {
		t.Fatal(err)
	}
	if _, err := DeriveAllRules(unfav, 0.01, 3, 0.01); err != nil {
		t.Fatal(err)
	}

	opt := Project()
	opt.Design.Rules = unfav.Design.Rules
	if _, err := Optimize(opt); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	mc := explore.YieldOptions{Samples: 60, Seed: 2008, MaxFreq: 30e6}
	yUnfav, err := explore.Yield(ctx, unfav, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	yOpt, err := explore.Yield(ctx, opt, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if yUnfav.Yield > 0.05 {
		t.Errorf("unfavourable layout yield = %.0f%%, expected ≈ 0", yUnfav.Yield*100)
	}
	if yOpt.Yield < 0.7 {
		t.Errorf("optimised layout yield = %.0f%%, expected solid", yOpt.Yield*100)
	}
	// Margins are sorted and the quantiles are ordered.
	if yOpt.Percentile(0.1) > yOpt.Percentile(0.9) {
		t.Error("percentiles out of order")
	}
	// Deterministic for a seed.
	y2, err := explore.Yield(ctx, opt, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if y2.Pass != yOpt.Pass {
		t.Errorf("non-deterministic yield: %d vs %d", y2.Pass, yOpt.Pass)
	}
}
