package place

import (
	"context"
	"sort"

	"repro/internal/drc"
	"repro/internal/layout"
)

// LegalizeCtx repairs a layout with design-rule violations by rip-up and
// re-place: the movable components involved in violations are removed and
// re-inserted by the prioritised sequential search, which only yields
// legal positions. It is the batch companion of the interactive adviser —
// e.g. for turning an imported (EMI-blind) layout into a legal one while
// disturbing as few components as possible. Cancellation works as in
// AutoPlaceCtx.
//
// Returns the references that were re-placed. If even re-placement cannot
// find room, a PlaceError lists the remainder.
func LegalizeCtx(ctx context.Context, d *layout.Design, opt Options) ([]string, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var ripped []string
	// Violations can cascade: repairing one pair may be impossible until
	// another offender moved, so iterate rip-up rounds.
	for round := 0; round < 4; round++ {
		rep := drc.Check(d)
		if rep.Green() {
			break
		}
		offenders := map[string]bool{}
		for _, v := range rep.Violations {
			for _, ref := range v.Refs {
				c := d.Find(ref)
				if c != nil && !c.Preplaced && c.Placed {
					offenders[ref] = true
				}
			}
		}
		if len(offenders) == 0 {
			break // only preplaced parts involved: nothing we may move
		}
		for ref := range offenders {
			d.Find(ref).Placed = false
		}
		for ref := range offenders {
			ripped = append(ripped, ref)
		}
		if _, err := placeUnplaced(ctx, d, opt, opt.rng()); err != nil {
			return dedupSorted(ripped), err
		}
	}
	rep := drc.Check(d)
	if !rep.Green() {
		var refs []string
		for _, v := range rep.Violations {
			refs = append(refs, v.Refs...)
		}
		return dedupSorted(ripped), &PlaceError{Refs: dedupSorted(refs)}
	}
	return dedupSorted(ripped), nil
}

func dedupSorted(in []string) []string {
	set := map[string]bool{}
	for _, s := range in {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
