package core

import (
	"context"
	"math"
	"testing"
)

// TestExtractCouplingsHierMatchesExact: switching a project to the
// hierarchical evaluator must reproduce the exact coupling factors
// within the theta-controlled tolerance, with and without a ground
// plane; theta = 0 must stay bit-identical to the legacy path.
func TestExtractCouplingsHierMatchesExact(t *testing.T) {
	t.Parallel()
	for _, plane := range []bool{false, true} {
		p := testProject()
		placeBoth(p, 0.025, 0)
		if plane {
			z := -0.002
			p.GroundPlane = &z
		}
		exact, err := p.ExtractCouplings(p.AllPairs())
		if err != nil {
			t.Fatal(err)
		}

		p.CouplingTheta = 0.25
		hier, err := p.ExtractCouplings(p.AllPairs())
		if err != nil {
			t.Fatal(err)
		}
		for pair, ke := range exact {
			kh := hier[pair]
			if ke == 0 {
				t.Fatalf("plane=%v: exact coupling for %v is zero", plane, pair)
			}
			if rel := math.Abs(kh-ke) / math.Abs(ke); rel > 0.05 {
				t.Errorf("plane=%v pair %v: exact k=%g hier k=%g (rel %g)",
					plane, pair, ke, kh, rel)
			}
		}

		// theta = 0 is the legacy path, bit-for-bit.
		p.CouplingTheta = 0
		again, err := p.ExtractCouplings(p.AllPairs())
		if err != nil {
			t.Fatal(err)
		}
		for pair, ke := range exact {
			if again[pair] != ke {
				t.Errorf("plane=%v pair %v: theta=0 not bit-exact: %g vs %g",
					plane, pair, again[pair], ke)
			}
		}
	}
}

// TestExtractCouplingsHierCancellation: the hierarchical path honours
// context cancellation like the exact one.
func TestExtractCouplingsHierCancellation(t *testing.T) {
	t.Parallel()
	p := testProject()
	placeBoth(p, 0.025, 0)
	p.CouplingTheta = 0.3
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExtractCouplingsCtx(ctx, p.AllPairs()); err == nil {
		t.Fatal("cancelled extraction should fail")
	}
}
