package ec25519

import (
	"crypto/subtle"
	"errors"
	"fmt"
)

// Edwards-curve point arithmetic for
//
//	-x² + y² = 1 + d·x²·y²,  d = -121665/121666 over GF(2^255-19)
//
// (the twisted Edwards form of Curve25519, as in Ed25519).  Points use
// extended homogeneous coordinates (X : Y : Z : T) with x = X/Z,
// y = Y/Z and X·Y = Z·T.  The addition law is the a = -1 "hwcd-3"
// formula set, which is complete on this curve (d is a non-square), so
// additions involving the identity or equal inputs need no special
// cases — the scalar ladder stays branch-free on point values.

// Common errors returned by point decoding.
var (
	// ErrNotOnCurve reports an encoding whose y has no matching x.
	ErrNotOnCurve = errors.New("ec25519: encoding is not a curve point")
	// ErrNonCanonical reports an encoding that is not the canonical
	// serialization of any point (y ≥ p, or x = -0).
	ErrNonCanonical = errors.New("ec25519: non-canonical point encoding")
)

// EncodedLen is the byte length of a compressed point encoding.
const EncodedLen = 32

// Point is a point on the curve.  The zero value is invalid; obtain
// points from Decode, MapToPoint, Identity, or arithmetic on those.
// Points are immutable once returned and safe for concurrent use.
type Point struct {
	x, y, z, t fe
}

// identity is the neutral element (0, 1).
var identity = Point{y: feOne, z: feOne}

// Identity returns the neutral element of the curve group.
func Identity() *Point {
	p := identity
	return &p
}

// Intermediate representations.  The addition and doubling formulas
// first produce a "completed" point; finishing it into projective
// (X : Y : Z) costs 3 M and into extended (X : Y : Z : T) 4 M.  A
// doubling reads only X, Y, Z, so a chain of doublings carries T only
// into the step whose result feeds an addition.

// completed is the point ((X : Z), (Y : T)) with x = X/Z, y = Y/T.
type completed struct {
	x, y, z, t fe
}

// projective is the point (X : Y : Z) with x = X/Z, y = Y/Z.
type projective struct {
	x, y, z fe
}

// cached is an addend prepared for repeated use:
// (Y+X, Y-X, 2Z, 2d·T).
type cached struct {
	yPlusX, yMinusX, z2, t2d fe
}

// cachedIdentity is the identity as an addend.
var cachedIdentity = cached{yPlusX: feOne, yMinusX: feOne, z2: fe{l0: 2}}

// fromPoint sets v to p's projective part.
func (v *projective) fromPoint(p *Point) {
	v.x, v.y, v.z = p.x, p.y, p.z
}

// fromCompleted sets v to the projective form of c (3 M).
func (v *projective) fromCompleted(c *completed) {
	feMul(&v.x, &c.x, &c.t)
	feMul(&v.y, &c.y, &c.z)
	feMul(&v.z, &c.z, &c.t)
}

// fromCompleted sets v to the extended form of c (4 M).
func (v *Point) fromCompleted(c *completed) {
	feMul(&v.x, &c.x, &c.t)
	feMul(&v.y, &c.y, &c.z)
	feMul(&v.z, &c.z, &c.t)
	feMul(&v.t, &c.x, &c.y)
}

// fromPoint sets v to p prepared as an addend (1 M).
func (v *cached) fromPoint(p *Point) {
	feAdd(&v.yPlusX, &p.y, &p.x)
	feSub(&v.yMinusX, &p.y, &p.x)
	feAdd(&v.z2, &p.z, &p.z)
	feMul(&v.t2d, &p.t, &d2Const)
}

// double sets v = 2p (dbl-2008-hwcd, a = -1: 4 S).
func (v *completed) double(p *projective) {
	var xx, yy, zz2, xPlusYSq fe
	feSquare(&xx, &p.x)
	feSquare(&yy, &p.y)
	feSquare(&zz2, &p.z)
	feAdd(&zz2, &zz2, &zz2) // 2Z²
	feAdd(&xPlusYSq, &p.x, &p.y)
	feSquare(&xPlusYSq, &xPlusYSq)

	feAdd(&v.y, &yy, &xx)
	feSub(&v.z, &yy, &xx)
	feSub(&v.x, &xPlusYSq, &v.y) // 2XY
	feSub(&v.t, &zz2, &v.z)
}

// add sets v = p + q using the complete a = -1 extended-coordinate
// addition (add-2008-hwcd-3: 4 M against a cached addend).
func (v *completed) add(p *Point, q *cached) {
	var yPlusX, yMinusX, pp, mm, tt2d, zz2 fe
	feAdd(&yPlusX, &p.y, &p.x)
	feSub(&yMinusX, &p.y, &p.x)
	feMul(&pp, &yPlusX, &q.yPlusX)
	feMul(&mm, &yMinusX, &q.yMinusX)
	feMul(&tt2d, &p.t, &q.t2d)
	feMul(&zz2, &p.z, &q.z2)

	feSub(&v.x, &pp, &mm)
	feAdd(&v.y, &pp, &mm)
	feAdd(&v.z, &zz2, &tt2d)
	feSub(&v.t, &zz2, &tt2d)
}

// double sets v = 2p.
func (v *Point) double(p *Point) {
	var r projective
	var c completed
	r.fromPoint(p)
	c.double(&r)
	v.fromCompleted(&c)
}

// add sets v = p + q.
func (v *Point) add(p, q *Point) {
	var qc cached
	var c completed
	qc.fromPoint(q)
	c.add(p, &qc)
	v.fromCompleted(&c)
}

// Add returns p + q.
func (p *Point) Add(q *Point) *Point {
	var v Point
	v.add(p, q)
	return &v
}

// Double returns 2p.
func (p *Point) Double() *Point {
	var v Point
	v.double(p)
	return &v
}

// Equal reports whether p and q are the same point (comparing the
// underlying affine coordinates across projective representations).
func (p *Point) Equal(q *Point) bool {
	var a, b fe
	feMul(&a, &p.x, &q.z)
	feMul(&b, &q.x, &p.z)
	if !feEqual(&a, &b) {
		return false
	}
	feMul(&a, &p.y, &q.z)
	feMul(&b, &q.y, &p.z)
	return feEqual(&a, &b)
}

// IsIdentity reports whether p is the neutral element.
func (p *Point) IsIdentity() bool {
	return p.Equal(&identity)
}

// IsSmallOrder reports whether p's order divides the cofactor 8, i.e.
// whether p lies in the small torsion subgroup (the identity and the
// seven low-order points).  Such encodings are rejected as protocol
// elements: they are not outputs of the hash-to-curve map and a
// torsion component would make f_e lose information.
func (p *Point) IsSmallOrder() bool {
	var r projective
	r.fromPoint(p)
	var v Point
	v.mulByCofactor(r)
	return v.IsIdentity()
}

// mulByCofactor sets v = 8r: three doublings, only the last of which
// computes T.
func (v *Point) mulByCofactor(r projective) {
	var c completed
	c.double(&r)
	r.fromCompleted(&c)
	c.double(&r)
	r.fromCompleted(&c)
	c.double(&r)
	v.fromCompleted(&c)
}

// ScalarMult returns e·p, with the scalar given as 32 big-endian
// bytes.  The scalar is recoded into 64 signed radix-16 digits in
// [-8, 7] plus a top digit in {0, 1}; each digit selects |d|·p from a
// 9-entry cached table by a full masked scan and negates it by a
// masked swap, and every digit costs four doublings and one complete
// addition (a zero digit adds the identity), so the sequence of point
// operations does not depend on scalar bits.  One call is the EC
// backend's C_e operation.
func (p *Point) ScalarMult(e *[32]byte) *Point {
	// table[i] = i·p for i = 0..8.
	var table [9]cached
	table[0] = cachedIdentity
	table[1].fromPoint(p)
	var multiple Point
	multiple.double(p)
	table[2].fromPoint(&multiple)
	for i := 3; i < 9; i++ {
		var c completed
		c.add(&multiple, &table[1])
		multiple.fromCompleted(&c)
		table[i].fromPoint(&multiple)
	}

	digits := recodeSigned16(e)
	var (
		v   = identity
		r   projective
		c   completed
		sel cached
	)
	sel.selectSigned(&table, digits[64])
	c.add(&v, &sel)
	for i := 63; i >= 0; i-- {
		r.fromCompleted(&c)
		c.double(&r)
		r.fromCompleted(&c)
		c.double(&r)
		r.fromCompleted(&c)
		c.double(&r)
		r.fromCompleted(&c)
		c.double(&r)
		v.fromCompleted(&c)
		sel.selectSigned(&table, digits[i])
		c.add(&v, &sel)
	}
	v.fromCompleted(&c)
	return &v
}

// recodeSigned16 rewrites the big-endian scalar e as
// Σ d[i]·16^i with d[0..63] ∈ [-8, 7] and d[64] ∈ {0, 1}, carrying
// branch-free from the low nibble up.
func recodeSigned16(e *[32]byte) [65]int8 {
	var d [65]int8
	for i := 0; i < 32; i++ {
		b := e[31-i]
		d[2*i] = int8(b & 15)
		d[2*i+1] = int8(b >> 4)
	}
	var carry int8
	for i := 0; i < 64; i++ {
		d[i] += carry
		carry = (d[i] + 8) >> 4
		d[i] -= carry << 4
	}
	d[64] = carry
	return d
}

// selectSigned sets v = d·p from table[i] = i·p, |d| ≤ 8, reading
// every entry and applying the sign by masked swap and select.
func (v *cached) selectSigned(table *[9]cached, d int8) {
	neg := d >> 7          // 0 or -1
	abs := (d ^ neg) - neg // |d|
	*v = table[0]
	for i := 1; i < 9; i++ {
		eq := subtle.ConstantTimeByteEq(uint8(i), uint8(abs)) == 1
		feSelect(&v.yPlusX, &table[i].yPlusX, &v.yPlusX, eq)
		feSelect(&v.yMinusX, &table[i].yMinusX, &v.yMinusX, eq)
		feSelect(&v.z2, &table[i].z2, &v.z2, eq)
		feSelect(&v.t2d, &table[i].t2d, &v.t2d, eq)
	}
	// -(Y+X, Y-X, 2Z, 2dT) = (Y-X, Y+X, 2Z, -2dT).
	isNeg := neg != 0
	yPlusX, yMinusX := v.yPlusX, v.yMinusX
	feSelect(&v.yPlusX, &yMinusX, &yPlusX, isNeg)
	feSelect(&v.yMinusX, &yPlusX, &yMinusX, isNeg)
	var negT fe
	feNeg(&negT, &v.t2d)
	feSelect(&v.t2d, &negT, &v.t2d, isNeg)
}

// Encode appends the canonical 32-byte compressed encoding of p to
// dst: the little-endian bytes of y with the sign of x in the top bit.
func (p *Point) Encode(dst []byte) []byte {
	var zInv, x, y fe
	feInvert(&zInv, &p.z)
	feMul(&x, &p.x, &zInv)
	feMul(&y, &p.y, &zInv)

	var out [32]byte
	y.toBytes(&out)
	if feIsNegative(&x) {
		out[31] |= 0x80
	}
	return append(dst, out[:]...)
}

// Decode parses a canonical compressed encoding.  It rejects
// encodings with y ≥ p, encodings whose y is on no curve point, and
// the non-canonical "negative zero" x.  It does NOT reject low-order
// points; callers that need subgroup membership combine Decode with
// IsSmallOrder.
func Decode(b []byte) (*Point, error) {
	if len(b) != EncodedLen {
		return nil, fmt.Errorf("ec25519: point encoding must be %d bytes, got %d", EncodedLen, len(b))
	}
	sign := b[31]&0x80 != 0
	y := feFromBytes(b)
	// Canonicality of y: re-serialize and compare against the input
	// with the sign bit cleared.
	var canon [32]byte
	y.toBytes(&canon)
	for i := range canon {
		expect := b[i]
		if i == 31 {
			expect &^= 0x80
		}
		if canon[i] != expect {
			return nil, ErrNonCanonical
		}
	}

	// Recover x from x² = (y² - 1) / (d·y² + 1).
	var yy, u, v, x fe
	feSquare(&yy, &y)
	feSub(&u, &yy, &feOne)
	feMul(&v, &yy, &dConst)
	feAdd(&v, &v, &feOne)
	if !feSqrtRatio(&x, &u, &v) {
		return nil, ErrNotOnCurve
	}
	if feIsZero(&x) {
		if sign {
			return nil, ErrNonCanonical // -0 is not canonical
		}
	} else if feIsNegative(&x) != sign {
		feNeg(&x, &x)
	}

	p := &Point{x: x, y: y, z: feOne}
	feMul(&p.t, &x, &y)
	return p, nil
}

// feSqrtRatio sets r to the non-negative square root of u/v and
// reports whether u/v was square.  Division by zero yields zero, so
// (0, v) gives (0, true) and (u≠0, 0) gives (0, false) — the
// conventions Decode relies on.  Uses the p ≡ 5 (mod 8) shortcut: the
// candidate of sqrtRatioCandidate, fixed up by √-1 when the check
// lands on -u.
func feSqrtRatio(r, u, v *fe) bool {
	var cand, check, negU, alt fe
	sqrtRatioCandidate(&cand, u, v)
	feSquare(&check, &cand)
	feMul(&check, &check, v) // v·cand²
	feNeg(&negU, u)
	direct := feEqual(&check, u)
	flipped := feEqual(&check, &negU)

	feMul(&alt, &cand, &sqrtM1Const)
	feSelect(&cand, &alt, &cand, flipped && !direct)
	isSquare := direct || flipped
	feSelect(&cand, &cand, &feZero, isSquare)
	feAbs(r, &cand)
	return isSquare
}

// sqrtRatioCandidate sets cand = u·v³·(u·v⁷)^((p-5)/8).  When u/v is
// square, v·cand² is u or -u; when it is not, v·cand² is ±√-1·u.
// One exponentiation.
func sqrtRatioCandidate(cand, u, v *fe) {
	var v3, uv7 fe
	feSquare(&v3, v)
	feMul(&v3, &v3, v) // v³
	feSquare(&uv7, &v3)
	feMul(&uv7, &uv7, v)
	feMul(&uv7, &uv7, u) // u·v⁷
	fePow22523(cand, &uv7)
	feMul(cand, cand, u)
	feMul(cand, cand, &v3)
}
