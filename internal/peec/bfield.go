package peec

import (
	"context"
	"math"

	"repro/internal/engine"
	"repro/internal/geom"
)

// SegmentBField returns the magnetic flux density at point p produced by
// current i flowing through segment s, using the exact finite-segment
// Biot–Savart solution. Points on the segment axis return the zero vector
// (the field is singular on the filament itself; the caller is expected to
// stay a wire radius away).
func SegmentBField(s Segment, i float64, p geom.Vec3) geom.Vec3 {
	u := s.B.Sub(s.A)
	l := u.Norm()
	if l == 0 {
		return geom.Vec3{}
	}
	uhat := u.Scale(1 / l)
	ap := p.Sub(s.A)
	proj := ap.Dot(uhat)
	perp := ap.Sub(uhat.Scale(proj))
	d := perp.Norm()
	// Regularise on-axis evaluation with the wire radius.
	reg := math.Max(s.Radius*1e-3, 1e-12)
	if d < reg {
		return geom.Vec3{}
	}
	z1 := -proj
	z2 := l - proj
	f := z2/math.Sqrt(z2*z2+d*d) - z1/math.Sqrt(z1*z1+d*d)
	mag := Mu0 * i / (4 * math.Pi * d) * f
	dir := uhat.Cross(perp.Scale(1 / d))
	return dir.Scale(mag)
}

// BField returns the flux density at p produced by current i through the
// whole conductor structure, scaled by its effective permeability (the
// paper's stray-field approximation for cored components) and attenuated
// by its shield factor.
func (c *Conductor) BField(i float64, p geom.Vec3) geom.Vec3 {
	var b geom.Vec3
	for _, s := range c.Segments {
		b = b.Add(SegmentBField(s, i, p))
	}
	return b.Scale(c.muEff() * c.shield())
}

// FieldMap samples |B| over a regular nx×ny grid spanning rectangle r at
// height z, for unit current through each conductor in cs. It reproduces
// the kind of stray-field picture shown in the paper's Figure 4.
// The returned grid is indexed [iy][ix]. Rows are sampled over the
// engine's worker pool; each cell is an independent Biot–Savart sum, so
// the grid is identical under any parallelism.
func FieldMap(cs []*Conductor, r geom.Rect, z float64, nx, ny int) [][]float64 {
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	defer engine.Phase("peec.fieldmap")()
	out := make([][]float64, ny)
	engine.ForEachCtx(context.Background(), ny, func(iy int) error {
		row := make([]float64, nx)
		y := r.Min.Y + (r.Max.Y-r.Min.Y)*float64(iy)/float64(ny-1)
		for ix := 0; ix < nx; ix++ {
			x := r.Min.X + (r.Max.X-r.Min.X)*float64(ix)/float64(nx-1)
			p := geom.V3(x, y, z)
			var b geom.Vec3
			for _, c := range cs {
				b = b.Add(c.BField(1, p))
			}
			row[ix] = b.Norm()
		}
		out[iy] = row
		return nil
	})
	return out
}
