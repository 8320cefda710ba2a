package place

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/layout"
)

// sequentialPlace implements step 3: components are placed one after
// another in priority order on the continuous plane. For each component a
// raster of candidate centers inside its allowed areas is evaluated for
// legality against all design rules; among the legal candidates a weighted
// cost of net length, group coherence and compactness picks the position.
// If the raster yields no legal position it is refined (halved) up to
// opt.MaxRefine times before the component is reported unplaceable.
func sequentialPlace(ctx context.Context, d *layout.Design, opt Options, rng *rand.Rand) (int, error) {
	for _, c := range placementOrder(d) {
		c.Placed = false // re-place movable components from scratch
	}
	return placeUnplaced(ctx, d, opt, rng)
}

// orderFor returns the sequential-placement order: the deterministic
// priority order, or — with OrderJitter enabled — the same priorities
// perturbed multiplicatively by the run's seeded rng. The jitters are
// drawn in design order (one per movable component) so the stream, and
// with it the placement, depends only on the seed.
func orderFor(d *layout.Design, opt Options, rng *rand.Rand) []*layout.Component {
	if opt.OrderJitter <= 0 || rng == nil {
		return placementOrder(d)
	}
	var order []*layout.Component
	var pri []float64
	for _, c := range d.Comps {
		if c.Preplaced {
			continue
		}
		order = append(order, c)
		pri = append(pri, priority(d, c)*(1+opt.OrderJitter*(2*rng.Float64()-1)))
	}
	idx := make([]int, len(order))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if pri[idx[a]] != pri[idx[b]] {
			return pri[idx[a]] > pri[idx[b]]
		}
		return order[idx[a]].Ref < order[idx[b]].Ref
	})
	out := make([]*layout.Component, len(order))
	for i, j := range idx {
		out[i] = order[j]
	}
	return out
}

// placeUnplaced runs the prioritised sequential search for every movable
// component that currently has no position, leaving placed ones alone —
// the shared engine of AutoPlace (which unplaces everything first) and
// LegalizeCtx (which rips up only the offenders). Cancellation is checked
// between components and between raster rows inside a candidate scan.
func placeUnplaced(ctx context.Context, d *layout.Design, opt Options, rng *rand.Rand) (int, error) {
	grid := opt.GridStep
	if grid <= 0 {
		grid = autoGrid(d)
	}
	placedCount := 0
	var failed []string

	for _, c := range orderFor(d, opt, rng) {
		if c.Placed {
			continue
		}
		if err := ctx.Err(); err != nil {
			return placedCount, err
		}
		ok := false
		g := grid
		for attempt := 0; attempt <= opt.maxRefine(); attempt++ {
			best, found := bestCandidate(ctx, d, c, g, opt)
			if err := ctx.Err(); err != nil {
				return placedCount, err
			}
			if found {
				c.Center, c.Rot, c.Placed = best.center, best.rot, true
				ok = true
				break
			}
			g /= 2
		}
		if ok {
			placedCount++
		} else {
			failed = append(failed, c.Ref)
		}
	}
	if len(failed) > 0 {
		return placedCount, &PlaceError{Refs: failed}
	}
	return placedCount, nil
}

// candidate is a legal placement option with its cost.
type candidate struct {
	center geom.Vec2
	rot    float64
	cost   float64
}

// rotationsFor returns the rotations to try during placement. Magnetic
// components keep the angle chosen by step 1 (unless the caller baselines
// EMD away); others try all allowed angles, since their rotation only
// affects the footprint.
func rotationsFor(c *layout.Component, opt Options) []float64 {
	if !opt.SkipRotation && !opt.IgnoreEMD && c.AxisAt(0) != vecZero {
		return []float64{c.Rot}
	}
	return c.Rotations()
}

// bestCandidate scans the raster of the component's allowed areas. The
// placement-invariant parts of the legality and cost evaluation (group
// boxes, placed footprints, EMD requirements, net memberships) are
// hoisted into a scan context once per component — they do not change
// while one component's raster is scanned, and rebuilding them per
// candidate dominated the placement profile.
func bestCandidate(cancel context.Context, d *layout.Design, c *layout.Component, grid float64, opt Options) (candidate, bool) {
	ctx := newScanCtx(d, c, opt)
	best := candidate{cost: math.Inf(1)}
	found := false
	for _, area := range d.AreasOf(c.Board, c.AreaName) {
		bb := area.Poly.BBox()
		// Inset by half the smaller dimension so tiny parts hug edges.
		for y := bb.Min.Y; y <= bb.Max.Y+1e-12; y += grid {
			if cancel.Err() != nil {
				return best, false
			}
			for x := bb.Min.X; x <= bb.Max.X+1e-12; x += grid {
				center := geom.V2(x, y)
				for ri := range ctx.rots {
					if !ctx.legalAt(area, center, ri) {
						continue
					}
					cost := ctx.cost(center)
					if cost < best.cost-1e-12 ||
						(math.Abs(cost-best.cost) <= 1e-12 && lessPos(center, best.center)) {
						best = candidate{center: center, rot: ctx.rots[ri], cost: cost}
						found = true
					}
				}
			}
		}
	}
	return best, found
}

func lessPos(a, b geom.Vec2) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// scanCtx caches everything about one component's candidate scan that
// does not depend on the candidate position: placed footprints, group
// bounding boxes, per-rotation EMD requirements, net memberships and
// the fixed cost terms. The design is not mutated while a raster is
// scanned, so all of this is invariant — rebuilding it per candidate
// (especially Design.Groups) dominated the placement profile. Every
// floating-point evaluation keeps the operand order of the direct
// rule checks, so placements are bit-identical.
type scanCtx struct {
	d   *layout.Design
	c   *layout.Component
	opt Options

	rots   []float64
	hw, hh []float64 // c's footprint half-extents per rotation

	keepouts []geom.Cuboid // keepout boxes on c's board
	others   []scanOther   // placed components on c's board, design order

	foreignBoxes []geom.Rect // placed bounding box per foreign group
	ownFPs       []geom.Rect // own group's placed members' footprints
	outsiders    []geom.Vec2 // centers of placed non-group comps on board

	netLims []netLimit

	// Cost terms.
	mates         []geom.Vec2 // placed net mates (with multiplicity, net order)
	groupCentroid geom.Vec2
	hasGroupCost  bool
	boardCenter   geom.Vec2
	wWire         float64
	wGroup        float64
	wCompact      float64
}

// scanOther is one placed component the candidate must respect.
type scanOther struct {
	center geom.Vec2
	fp     geom.Rect
	need   []float64 // EMD minimum distance per rotation index; nil if none
}

// netLimit is a length-limited net involving the candidate component. The
// points slice is a template: the entries at cIdx are overwritten with the
// candidate center on every evaluation, the rest are fixed placed mates.
type netLimit struct {
	max  float64
	pts  []geom.Vec2
	cIdx []int
}

// newScanCtx hoists the placement-invariant state for scanning c.
func newScanCtx(d *layout.Design, c *layout.Component, opt Options) *scanCtx {
	ctx := &scanCtx{
		d: d, c: c, opt: opt,
		rots:        rotationsFor(c, opt),
		boardCenter: boardCentroid(d, c.Board),
		wWire:       opt.wWire(),
		wGroup:      opt.wGroup(),
		wCompact:    opt.wCompact(),
	}
	ctx.hw = make([]float64, len(ctx.rots))
	ctx.hh = make([]float64, len(ctx.rots))
	for ri, rot := range ctx.rots {
		s, co := math.Sincos(rot)
		ctx.hw[ri] = (math.Abs(co)*c.W + math.Abs(s)*c.L) / 2
		ctx.hh[ri] = (math.Abs(s)*c.W + math.Abs(co)*c.L) / 2
	}
	for _, k := range d.Keepouts {
		if k.Board == c.Board {
			ctx.keepouts = append(ctx.keepouts, k.Box)
		}
	}
	for _, o := range d.Comps {
		if o == c || !o.Placed || o.Board != c.Board {
			continue
		}
		so := scanOther{center: o.Center, fp: o.Footprint()}
		if !opt.IgnoreEMD {
			so.need = make([]float64, len(ctx.rots))
			for ri, rot := range ctx.rots {
				so.need[ri] = d.EMDBetween(c, o, rot, o.Rot)
			}
		}
		ctx.others = append(ctx.others, so)
	}
	groups := d.Groups()
	for name, members := range groups {
		if name == c.Group {
			continue
		}
		var bbox geom.Rect
		any := false
		for _, m := range members {
			if m.Placed && m.Board == c.Board {
				if !any {
					bbox = m.Footprint()
					any = true
				} else {
					bbox = bbox.Union(m.Footprint())
				}
			}
		}
		if any {
			ctx.foreignBoxes = append(ctx.foreignBoxes, bbox)
		}
	}
	if c.Group != "" {
		var sum geom.Vec2
		n := 0
		for _, m := range groups[c.Group] {
			if m != c && m.Placed && m.Board == c.Board {
				ctx.ownFPs = append(ctx.ownFPs, m.Footprint())
				sum = sum.Add(m.Center)
				n++
			}
		}
		if n > 0 {
			ctx.groupCentroid = sum.Scale(1 / float64(n))
			ctx.hasGroupCost = true
		}
		for _, o := range d.Comps {
			if o == c || !o.Placed || o.Board != c.Board || o.Group == c.Group {
				continue
			}
			ctx.outsiders = append(ctx.outsiders, o.Center)
		}
	}
	for _, n := range d.Nets {
		involved := false
		for _, r := range n.Refs {
			if r == c.Ref {
				involved = true
				break
			}
		}
		if !involved {
			continue
		}
		if n.MaxLength > 0 {
			nl := netLimit{max: n.MaxLength}
			for _, r := range n.Refs {
				if r == c.Ref {
					nl.cIdx = append(nl.cIdx, len(nl.pts))
					nl.pts = append(nl.pts, geom.Vec2{})
				} else if o := d.Find(r); o != nil && o.Placed {
					nl.pts = append(nl.pts, o.Center)
				}
			}
			ctx.netLims = append(ctx.netLims, nl)
		}
		// Cost mates, with the same multiplicity and order as the direct
		// net scan: one pass per occurrence of c.Ref in the net.
		for _, r := range n.Refs {
			if r != c.Ref {
				continue
			}
			for _, other := range n.Refs {
				if other == c.Ref {
					continue
				}
				if o := d.Find(other); o != nil && o.Placed {
					ctx.mates = append(ctx.mates, o.Center)
				}
			}
		}
	}
	return ctx
}

// legalAt checks every design rule for placing c at (center, rots[ri])
// inside the given area.
func (ctx *scanCtx) legalAt(area layout.Area, center geom.Vec2, ri int) bool {
	d, c := ctx.d, ctx.c
	hw, hh := ctx.hw[ri], ctx.hh[ri]
	fp := geom.R(center.X-hw, center.Y-hh, center.X+hw, center.Y+hh)
	if !area.Poly.ContainsRect(fp.Inflate(d.EdgeClearance)) {
		return false
	}
	body := geom.CuboidOf(fp, 0, c.H)
	for _, k := range ctx.keepouts {
		if body.Overlaps(k) {
			return false
		}
	}
	clearFP := fp.Inflate(d.Clearance)
	for i := range ctx.others {
		o := &ctx.others[i]
		// Clearance: inflating one footprint by the full clearance and
		// testing overlap is equivalent to separation < clearance for
		// axis-aligned rectangles.
		if clearFP.Overlaps(o.fp) || fp.Overlaps(o.fp) {
			return false
		}
		// EMD minimum distances (center to center).
		if o.need != nil {
			if need := o.need[ri]; need > 0 && center.Dist(o.center) < need {
				return false
			}
		}
	}
	// Group coherence, both directions: do not sit inside a foreign
	// group's bounding box, and do not grow the own group's bounding box
	// over a placed foreign component.
	for _, bbox := range ctx.foreignBoxes {
		if bbox.Contains(center) || bbox.Overlaps(fp) {
			return false
		}
	}
	if c.Group != "" {
		grown := fp
		for _, mfp := range ctx.ownFPs {
			grown = grown.Union(mfp)
		}
		for _, oc := range ctx.outsiders {
			if grown.Contains(oc) {
				return false
			}
		}
	}
	// Net length limits against already-placed mates.
	for i := range ctx.netLims {
		nl := &ctx.netLims[i]
		for _, k := range nl.cIdx {
			nl.pts[k] = center
		}
		if starLength(nl.pts) > nl.max {
			return false
		}
	}
	return true
}

func starLength(pts []geom.Vec2) float64 {
	if len(pts) < 2 {
		return 0
	}
	var centroid geom.Vec2
	for _, p := range pts {
		centroid = centroid.Add(p)
	}
	centroid = centroid.Scale(1 / float64(len(pts)))
	sum := 0.0
	for _, p := range pts {
		sum += p.Dist(centroid)
	}
	return sum
}

// cost scores a legal candidate (lower is better): connected net length,
// distance to the functional group's placed members, and compactness
// towards the board centroid.
func (ctx *scanCtx) cost(center geom.Vec2) float64 {
	wire := 0.0
	for _, p := range ctx.mates {
		wire += center.Dist(p)
	}
	group := 0.0
	if ctx.hasGroupCost {
		group = center.Dist(ctx.groupCentroid)
	}
	compact := center.Dist(ctx.boardCenter)
	return ctx.wWire*wire + ctx.wGroup*group + ctx.wCompact*compact
}

// SortRefs returns the design's references in placement-priority order —
// exposed for tests and diagnostics.
func SortRefs(d *layout.Design) []string {
	order := placementOrder(d)
	out := make([]string, len(order))
	for i, c := range order {
		out[i] = c.Ref
	}
	return out
}
