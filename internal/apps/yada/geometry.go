package yada

import (
	"cmp"
	"math"
	"math/big"
	"slices"
)

// Point is a 2-D vertex.
type Point struct{ X, Y float64 }

const geomEps = 1e-12

// orient returns twice the signed area of (a, b, c): positive when the
// triangle winds counter-clockwise.
func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// inCircleErrBound is Shewchuk's bound on the relative error of the float64
// in-circle determinant below, (10 + 96ε)ε with ε = 2^-53 ("Adaptive
// Precision Floating-Point Arithmetic and Fast Robust Geometric Predicates",
// 1997): a computed determinant larger in magnitude than this times its
// permanent has the exact determinant's sign.
const inCircleErrBound = (10 + 96*0x1p-53) * 0x1p-53

// inCircumcircle reports whether p lies strictly inside the circumcircle of
// the counter-clockwise triangle (a, b, c).
//
// It is a filtered exact predicate: the float64 determinant decides when it
// clears its error bound, and the rare near-cocircular case falls back to
// exact rational arithmetic. An approximate answer there is not enough:
// Bowyer–Watson's cavity must be exactly the triangles whose circumcircle
// holds p, or it stops being star-shaped around p and re-triangulating it
// leaves edges with three triangles.
func inCircumcircle(a, b, c, p Point) bool {
	ax, ay := a.X-p.X, a.Y-p.Y
	bx, by := b.X-p.X, b.Y-p.Y
	cx, cy := c.X-p.X, c.Y-p.Y
	bxcy, cxby := bx*cy, cx*by
	cxay, axcy := cx*ay, ax*cy
	axby, bxay := ax*by, bx*ay
	alift, blift, clift := ax*ax+ay*ay, bx*bx+by*by, cx*cx+cy*cy
	det := alift*(bxcy-cxby) + blift*(cxay-axcy) + clift*(axby-bxay)
	permanent := (math.Abs(bxcy)+math.Abs(cxby))*alift +
		(math.Abs(cxay)+math.Abs(axcy))*blift +
		(math.Abs(axby)+math.Abs(bxay))*clift
	if bound := inCircleErrBound * permanent; det > bound || -det > bound {
		return det > 0
	}
	return inCircleExact(a, b, c, p) > 0
}

// inCircleExact returns the sign of the in-circle determinant of (a, b, c,
// p), computed without rounding.
func inCircleExact(a, b, c, p Point) int {
	rat := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	sub := func(x, y float64) *big.Rat { return new(big.Rat).Sub(rat(x), rat(y)) }
	mul := func(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }
	ax, ay := sub(a.X, p.X), sub(a.Y, p.Y)
	bx, by := sub(b.X, p.X), sub(b.Y, p.Y)
	cx, cy := sub(c.X, p.X), sub(c.Y, p.Y)
	lift := func(x, y *big.Rat) *big.Rat { return new(big.Rat).Add(mul(x, x), mul(y, y)) }
	cross := func(x1, y1, x2, y2 *big.Rat) *big.Rat { return new(big.Rat).Sub(mul(x1, y2), mul(x2, y1)) }
	det := mul(lift(ax, ay), cross(bx, by, cx, cy))
	det.Add(det, mul(lift(bx, by), cross(cx, cy, ax, ay)))
	det.Add(det, mul(lift(cx, cy), cross(ax, ay, bx, by)))
	return det.Sign()
}

// circumcenter returns the circumcenter of (a, b, c); ok is false for
// (near-)degenerate triangles.
func circumcenter(a, b, c Point) (Point, bool) {
	d := 2 * orient(a, b, c)
	if math.Abs(d) < geomEps {
		return Point{}, false
	}
	a2 := a.X*a.X + a.Y*a.Y
	b2 := b.X*b.X + b.Y*b.Y
	c2 := c.X*c.X + c.Y*c.Y
	ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
	uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
	return Point{ux, uy}, true
}

// minAngleDeg returns the smallest interior angle of (a, b, c) in degrees.
func minAngleDeg(a, b, c Point) float64 {
	la := dist(b, c)
	lb := dist(a, c)
	lc := dist(a, b)
	if la < geomEps || lb < geomEps || lc < geomEps {
		return 0
	}
	angA := angleFromSides(lb, lc, la)
	angB := angleFromSides(la, lc, lb)
	angC := 180 - angA - angB
	return math.Min(angA, math.Min(angB, angC))
}

// angleFromSides returns the angle (degrees) opposite side c via the law of
// cosines, for adjacent sides a and b.
func angleFromSides(a, b, c float64) float64 {
	cos := (a*a + b*b - c*c) / (2 * a * b)
	if cos > 1 {
		cos = 1
	}
	if cos < -1 {
		cos = -1
	}
	return math.Acos(cos) * 180 / math.Pi
}

func dist(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// encroaches reports whether p lies inside the diametral circle of the
// segment (a, b).
func encroaches(a, b, p Point) bool {
	mid := Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
	r := dist(a, b) / 2
	return dist(mid, p) < r-geomEps
}

// triangulate computes the Delaunay triangulation of pts with the classic
// Bowyer–Watson algorithm (super-triangle, per-point cavity re-triangulation).
// It returns counter-clockwise triangles as point-index triples. Quadratic
// in the point count; used only for input generation.
func triangulate(pts []Point) [][3]int32 {
	n := len(pts)
	if n < 3 {
		return nil
	}
	// Bounding super-triangle.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	span := math.Max(maxX-minX, maxY-minY) * 16
	all := append(append([]Point(nil), pts...),
		Point{minX - span, minY - span},
		Point{minX + 2*span, minY - span},
		Point{minX, minY + 2*span},
	)
	s0, s1, s2 := int32(n), int32(n+1), int32(n+2)

	type tri = [3]int32
	tris := []tri{{s0, s1, s2}}
	for pi := 0; pi < n; pi++ {
		p := all[pi]
		// Cavity: triangles whose circumcircle contains p.
		var keep []tri
		edgeCount := map[[2]int32]int{}
		var boundary [][2]int32
		for _, t := range tris {
			if inCircumcircle(all[t[0]], all[t[1]], all[t[2]], p) {
				for e := 0; e < 3; e++ {
					u, w := t[e], t[(e+1)%3]
					key := [2]int32{u, w}
					rev := [2]int32{w, u}
					if edgeCount[rev] > 0 {
						edgeCount[rev]--
					} else {
						edgeCount[key]++
					}
				}
			} else {
				keep = append(keep, t)
			}
		}
		for key, cnt := range edgeCount {
			for i := 0; i < cnt; i++ {
				boundary = append(boundary, key)
			}
		}
		// Map order is random; sort so the same points always give the
		// same triangle order, and with it the same staged arena.
		slices.SortFunc(boundary, func(x, y [2]int32) int {
			return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
		})
		tris = keep
		for _, e := range boundary {
			nt := tri{e[0], e[1], int32(pi)}
			if orient(all[nt[0]], all[nt[1]], all[nt[2]]) < 0 {
				nt[0], nt[1] = nt[1], nt[0]
			}
			tris = append(tris, nt)
		}
	}
	// Drop triangles touching the super-triangle.
	var out [][3]int32
	for _, t := range tris {
		if t[0] >= int32(n) || t[1] >= int32(n) || t[2] >= int32(n) {
			continue
		}
		out = append(out, t)
	}
	return out
}
