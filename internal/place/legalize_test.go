package place

import (
	"context"
	"testing"

	"repro/internal/geom"
)

func TestLegalizeRepairsBaselineLayout(t *testing.T) {
	t.Parallel()
	// Start from the EMI-blind baseline (violates EMD rules), then
	// legalize: the result must be green with as few parts moved as
	// the violations demand.
	d := smallDesign()
	if _, err := AutoPlace(d, Options{IgnoreEMD: true}); err != nil {
		t.Fatal(err)
	}
	if Verify(d).Green() {
		t.Fatal("baseline should violate rules (test premise)")
	}
	moved, err := LegalizeCtx(context.Background(), d, Options{})
	if err != nil {
		t.Fatalf("Legalize: %v", err)
	}
	if len(moved) == 0 {
		t.Fatal("legalizer moved nothing")
	}
	if rep := Verify(d); !rep.Green() {
		t.Fatalf("legalized layout not green:\n%s", rep)
	}
	// Untouched components stayed where the baseline put them.
	movedSet := map[string]bool{}
	for _, r := range moved {
		movedSet[r] = true
	}
	stayed := 0
	for _, c := range d.Comps {
		if !movedSet[c.Ref] {
			stayed++
		}
	}
	t.Logf("moved %d, kept %d", len(moved), stayed)
}

func TestLegalizeNoopOnGreen(t *testing.T) {
	t.Parallel()
	d := smallDesign()
	if _, err := AutoPlace(d, Options{}); err != nil {
		t.Fatal(err)
	}
	before := placementSnapshot(d)
	moved, err := LegalizeCtx(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 {
		t.Errorf("green layout should not move anything: %v", moved)
	}
	if !snapshotsEqual(before, placementSnapshot(d)) {
		t.Error("green layout changed")
	}
}

func TestLegalizeRespectsPreplacedConflicts(t *testing.T) {
	t.Parallel()
	// Two preplaced parts violating a rule cannot be repaired.
	d := smallDesign()
	for _, ref := range []string{"C1", "C2"} {
		c := d.Find(ref)
		c.Preplaced = true
		c.Placed = true
	}
	d.Find("C1").Center = geom.V2(0.02, 0.025)
	d.Find("C2").Center = geom.V2(0.028, 0.025) // violates 15 mm PEMD
	// Place the rest legally.
	if _, err := AutoPlace(d, Options{}); err == nil {
		// AutoPlace may succeed for the movable parts; the design is
		// still red because of the preplaced pair.
		_ = err
	}
	if _, err := LegalizeCtx(context.Background(), d, Options{}); err == nil {
		t.Error("unfixable preplaced conflict should report an error")
	}
	if d.Find("C1").Center != geom.V2(0.02, 0.025) {
		t.Error("legalizer moved a preplaced part")
	}
}
