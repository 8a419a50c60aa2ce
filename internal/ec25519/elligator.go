// Package ec25519 is a from-scratch implementation of the prime-order
// subgroup of the twisted Edwards curve birationally equivalent to
// Curve25519, together with an Elligator2 hash-to-curve map.  It
// provides exactly what a commutative-encryption backend needs — a
// DDH-hard group of prime order ℓ ≈ 2^252, a map from uniform bytes
// into the group, scalar multiplication, and a canonical fixed-width
// encoding — using only the standard library.
//
// The commutative encryption built on it is f_e(x) = e·H(x): scalar
// multiplications commute, so Definition 2 of the paper holds with
// KeyF = [1, ℓ-1] and DomF the subgroup, under the same DDH assumption
// as the safe-prime instantiation of Example 1 but at a fraction of
// the per-operation (C_e) cost.
package ec25519

import (
	"fmt"
	"math/big"
)

// Curve constants, computed once at package initialization from first
// principles (so the only magic numbers in the package are the curve
// parameters 121665/121666, the Montgomery coefficient A = 486662, and
// the subgroup order).
var (
	// dConst is the Edwards d = -121665/121666.
	dConst fe
	// d2Const is 2d, used by the hwcd-3 addition.
	d2Const fe
	// sqrtM1Const is √-1 = 2^((p-1)/4).
	sqrtM1Const fe
	// sqrt2Const is 2^((p+3)/8), which carries a square-root
	// candidate for g(x1) to one for g(x2) = 2r²·g(x1) in the map.
	sqrt2Const fe
	// montAConst is the Montgomery coefficient A = 486662 of
	// v² = u³ + Au² + u.
	montAConst fe
	// sqrtNegAPlus2Const is √-(A+2), the scaling factor of the
	// birational map from Montgomery u,v to Edwards x.
	sqrtNegAPlus2Const fe

	// orderL is the subgroup order ℓ = 2^252 + 27742…493.
	orderL *big.Int
)

func init() {
	// 2^((p-5)/8) gives both 2^((p+3)/8) = 2^((p-5)/8)·2 and, squared
	// and doubled, √-1 = 2^((p-1)/4); both before anything that calls
	// feSqrtRatio.
	two := fe{l0: 2}
	var t fe
	fePow22523(&t, &two)
	feMul(&sqrt2Const, &t, &two)
	feSquare(&sqrtM1Const, &t)
	feMul(&sqrtM1Const, &sqrtM1Const, &two)
	var chk, minusOne fe
	feSquare(&chk, &sqrtM1Const)
	feNeg(&minusOne, &feOne)
	if !feEqual(&chk, &minusOne) {
		panic("ec25519: sqrt(-1) constant failed self-check")
	}

	// d = -121665/121666.
	num := fe{l0: 121665}
	den := fe{l0: 121666}
	feNeg(&num, &num)
	feInvert(&den, &den)
	feMul(&dConst, &num, &den)
	feAdd(&d2Const, &dConst, &dConst)

	montAConst = fe{l0: 486662}

	// √-(A+2): -(486664) is a residue mod p.
	negAPlus2 := fe{l0: 486664}
	feNeg(&negAPlus2, &negAPlus2)
	if !feSqrtRatio(&sqrtNegAPlus2Const, &negAPlus2, &feOne) {
		panic("ec25519: -(A+2) unexpectedly not a square")
	}

	orderL, _ = new(big.Int).SetString(
		"7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	if orderL == nil || orderL.BitLen() != 253 {
		panic("ec25519: bad subgroup order constant")
	}
}

// Order returns a copy of the prime order ℓ of the subgroup — the
// size of the commutative-encryption key space KeyF.
func Order() *big.Int {
	return new(big.Int).Set(orderL)
}

// HashLen is the number of uniform input bytes MapToPoint consumes.
// 512 bits folded mod p keep the reduction bias below 2^-257.
const HashLen = 64

// MapToPoint maps HashLen uniform bytes to a point of the prime-order
// subgroup: reduce mod p, Elligator2 onto the Montgomery curve, the
// birational map to Edwards form, then multiply by the cofactor 8.
// Output is statistically close to uniform over the subgroup.  It
// panics if uniform is not exactly HashLen bytes (caller bug).
func MapToPoint(uniform []byte) *Point {
	if len(uniform) != HashLen {
		panic(fmt.Sprintf("ec25519: MapToPoint needs %d bytes, got %d", HashLen, len(uniform)))
	}
	r := feFromWideBytes(uniform)
	var pr projective
	elligator2(&pr, &r)
	var out Point
	out.mulByCofactor(pr)
	return &out
}

// feFromWideBytes reduces a 64-byte big-endian integer H·2^256 + L
// modulo p as 38·H + L, with each 256-bit half loaded as its low 255
// bits plus 19 times its top bit (2^255 ≡ 19, 2^256 ≡ 38).
func feFromWideBytes(b []byte) fe {
	var hi, lo [32]byte
	for i := 0; i < 32; i++ {
		hi[i] = b[31-i]
		lo[i] = b[63-i]
	}
	h := feFromBytes(hi[:])
	h.l0 += 19 * uint64(hi[31]>>7)
	l := feFromBytes(lo[:])
	l.l0 += 19 * uint64(lo[31]>>7)
	var v fe
	feMul(&v, &h, &fe{l0: 38})
	feAdd(&v, &v, &l)
	return v
}

// elligator2 maps a field element onto the curve as a projective
// Edwards point, straight-line in the style of RFC 9380 App. G.2.1
// with one exponentiation and no inversion.  Montgomery side: with
// x1 = -A/(1+2r²) and x2 = 2r²·x1, exactly one of g(x1), g(x2) is
// square (g(u) = u³ + Au² + u); u is x1 if g(x1) is square, else x2,
// and v is the non-negative root of g(u).  Edwards side: the
// birational map x = √-(A+2)·u/v, y = (u-1)/(u+1), kept projective
// with u = xn/xd.  The exceptional inputs (v = 0 or u = -1, whose
// images are pure torsion) go to the identity; v = 0 happens only at
// r = 0, and u = -1 never (it would need r² to be (A-1)/2 or
// 1/(2(A-1)), both non-squares).
func elligator2(out *projective, r *fe) {
	// x1 = x1n/xd with x1n = -A, xd = 1 + 2r² (never zero: 2 is a
	// non-square and -1 a square, so 2r² ≠ -1).
	var tv1, xd, x1n, x2n fe
	feSquare(&tv1, r)
	feAdd(&tv1, &tv1, &tv1) // 2r²
	feAdd(&xd, &tv1, &feOne)
	feNeg(&x1n, &montAConst)
	feMul(&x2n, &x1n, &tv1)

	// g(x1) = gx1/gxd with gxd = xd³ and
	// gx1 = x1n³ + A·x1n²·xd + x1n·xd² = x1n·(x1n·(x1n + A·xd) + xd²),
	// where x1n + A·xd = A·2r².
	var xd2, gxd, gx1, gx2 fe
	feSquare(&xd2, &xd)
	feMul(&gxd, &xd2, &xd)
	feMul(&gx1, &montAConst, &tv1)
	feMul(&gx1, &gx1, &x1n)
	feAdd(&gx1, &gx1, &xd2)
	feMul(&gx1, &gx1, &x1n)
	feMul(&gx2, &gx1, &tv1) // g(x2)·xd³ = 2r²·gx1

	// y1 starts as the square-root candidate of gx1/gxd and
	// y2 = y1·r·2^((p+3)/8) as that of gx2/gxd; each is fixed up by √-1
	// when its check fails.
	var y1, y2, alt, check fe
	sqrtRatioCandidate(&y1, &gx1, &gxd)
	feMul(&y2, &y1, r)
	feMul(&y2, &y2, &sqrt2Const)

	feSquare(&check, &y1)
	feMul(&check, &check, &gxd)
	feMul(&alt, &y1, &sqrtM1Const)
	feSelect(&y1, &y1, &alt, feEqual(&check, &gx1))
	feSquare(&check, &y2)
	feMul(&check, &check, &gxd)
	feMul(&alt, &y2, &sqrtM1Const)
	feSelect(&y2, &y2, &alt, feEqual(&check, &gx2))

	// g(x1) is square exactly when the fixed-up y1 is its root.
	feSquare(&check, &y1)
	feMul(&check, &check, &gxd)
	x1Square := feEqual(&check, &gx1)
	var xn, v fe
	feSelect(&xn, &x1n, &x2n, x1Square)
	feSelect(&v, &y1, &y2, x1Square)
	feAbs(&v, &v)

	// (x, y) = (√-(A+2)·xn·(xn+xd), (xn-xd)·xd·v) / (xd·v·(xn+xd)).
	var xPlus, xMinus, vxd fe
	feAdd(&xPlus, &xn, &xd)
	feSub(&xMinus, &xn, &xd)
	feMul(&vxd, &v, &xd)
	feMul(&out.x, &sqrtNegAPlus2Const, &xn)
	feMul(&out.x, &out.x, &xPlus)
	feMul(&out.y, &xMinus, &vxd)
	feMul(&out.z, &vxd, &xPlus)

	exceptional := feIsZero(&out.z)
	feSelect(&out.x, &feZero, &out.x, exceptional)
	feSelect(&out.y, &feOne, &out.y, exceptional)
	feSelect(&out.z, &feOne, &out.z, exceptional)
}
