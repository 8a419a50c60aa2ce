package ec25519

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha512"
	"math/big"
	"math/rand"
	"testing"
)

var pBig = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// feToBig converts a field element to its canonical integer value.
func feToBig(t *testing.T, a *fe) *big.Int {
	t.Helper()
	var b [32]byte
	a.toBytes(&b)
	// little-endian → big-endian
	rev := make([]byte, 32)
	for i := range rev {
		rev[i] = b[31-i]
	}
	return new(big.Int).SetBytes(rev)
}

// feFromBig converts an integer in [0, p) to a field element.
func feFromBig(v *big.Int) fe {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return feFromBytes(buf[:])
}

// TestFieldArithmeticDifferential cross-checks fe add/sub/mul/square
// and the fixed addition chains against math/big over random operands
// and over 0, 1 and p-1: inversion (p-2) and the square-root exponent
// (p-5)/8 against Exp, and feSqrtRatio's square test against the
// Legendre symbol (p-1)/2.
func TestFieldArithmeticDifferential(t *testing.T) {
	pMinus2 := new(big.Int).Sub(pBig, big.NewInt(2))
	pMinus5Over8 := new(big.Int).Rsh(new(big.Int).Sub(pBig, big.NewInt(5)), 3)
	pMinus1Over2 := new(big.Int).Rsh(new(big.Int).Sub(pBig, big.NewInt(1)), 1)
	operands := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(pBig, big.NewInt(1))}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		operands = append(operands, new(big.Int).Rand(rng, pBig))
	}
	squares := 0
	for i, a := range operands {
		b := new(big.Int).Rand(rng, pBig)
		fa, fb := feFromBig(a), feFromBig(b)

		var got fe
		feAdd(&got, &fa, &fb)
		want := new(big.Int).Add(a, b)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("add mismatch at i=%d", i)
		}

		feSub(&got, &fa, &fb)
		want.Sub(a, b)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("sub mismatch at i=%d", i)
		}

		feMul(&got, &fa, &fb)
		want.Mul(a, b)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("mul mismatch at i=%d", i)
		}

		feSquare(&got, &fa)
		want.Mul(a, a)
		want.Mod(want, pBig)
		if feToBig(t, &got).Cmp(want) != 0 {
			t.Fatalf("square mismatch at i=%d", i)
		}

		feInvert(&got, &fa)
		if feToBig(t, &got).Cmp(want.Exp(a, pMinus2, pBig)) != 0 {
			t.Fatalf("inversion chain != a^(p-2) at i=%d", i)
		}

		fePow22523(&got, &fa)
		if feToBig(t, &got).Cmp(want.Exp(a, pMinus5Over8, pBig)) != 0 {
			t.Fatalf("pow22523 chain != a^((p-5)/8) at i=%d", i)
		}

		want.Exp(a, pMinus1Over2, pBig)
		wantSquare := want.Sign() == 0 || want.Cmp(big.NewInt(1)) == 0
		isSquare := feSqrtRatio(&got, &fa, &feOne)
		if isSquare != wantSquare {
			t.Fatalf("feSqrtRatio square=%v, Legendre says %v at i=%d", isSquare, wantSquare, i)
		}
		if isSquare {
			squares++
			r := feToBig(t, &got)
			if r.Bit(0) != 0 {
				t.Fatalf("root is negative at i=%d", i)
			}
			if want.Exp(r, big.NewInt(2), pBig).Cmp(a) != 0 {
				t.Fatalf("root does not square back at i=%d", i)
			}
		}
	}
	if squares < 150 || squares > len(operands)-150 {
		t.Fatalf("%d of %d operands square; the Legendre split looks wrong", squares, len(operands))
	}
}

// TestRecodeSigned16 checks that the signed digits sum back to the
// scalar and stay in range, including at the 2^256-1 extreme whose top
// carry lands in the 65th digit.
func TestRecodeSigned16(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scalars [][32]byte
	var allOnes, zero [32]byte
	for i := range allOnes {
		allOnes[i] = 0xFF
	}
	scalars = append(scalars, allOnes, zero)
	for i := 0; i < 100; i++ {
		var e [32]byte
		rng.Read(e[:])
		scalars = append(scalars, e)
	}
	for _, e := range scalars {
		d := recodeSigned16(&e)
		sum := new(big.Int)
		for i := 64; i >= 0; i-- {
			if i < 64 && (d[i] < -8 || d[i] > 7) {
				t.Fatalf("digit %d = %d out of [-8, 7]", i, d[i])
			}
			sum.Lsh(sum, 4)
			sum.Add(sum, big.NewInt(int64(d[i])))
		}
		if d[64] != 0 && d[64] != 1 {
			t.Fatalf("top digit %d", d[64])
		}
		if sum.Cmp(new(big.Int).SetBytes(e[:])) != 0 {
			t.Fatalf("digits of %x sum to %x", e, sum)
		}
	}
}

// TestScalarMultMatchesX25519 is an independent oracle for ScalarMult:
// the standard library's X25519 (a Montgomery ladder on u-coordinates)
// must agree with e·P mapped through u = (1+y)/(1-y), for clamped
// scalars on mapped points and on a point with a torsion component
// (clamping clears the cofactor, so the torsion drops out of both).
func TestScalarMultMatchesX25519(t *testing.T) {
	var points []*Point
	for i := 0; i < 8; i++ {
		seed := sha512.Sum512([]byte{byte(i), 'x', '2', '5', '5', '1', '9'})
		points = append(points, MapToPoint(seed[:]))
	}
	var zeroY [32]byte
	torsion, err := Decode(zeroY[:]) // (x, 0) with x² = -1: order 4
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, basePoint(t), basePoint(t).Add(torsion))

	rng := rand.New(rand.NewSource(4))
	for i, p := range points {
		for j := 0; j < 4; j++ {
			var k [32]byte // little-endian, as X25519 takes it
			rng.Read(k[:])
			k[0] &= 248
			k[31] &= 127
			k[31] |= 64
			priv, err := ecdh.X25519().NewPrivateKey(k[:])
			if err != nil {
				t.Fatal(err)
			}
			u := montgomeryU(p)
			pub, err := ecdh.X25519().NewPublicKey(u[:])
			if err != nil {
				t.Fatal(err)
			}
			want, err := priv.ECDH(pub)
			if err != nil {
				t.Fatalf("point %d: X25519: %v", i, err)
			}
			var e [32]byte // big-endian, as ScalarMult takes it
			for b := range e {
				e[b] = k[31-b]
			}
			got := montgomeryU(p.ScalarMult(&e))
			if !bytes.Equal(got[:], want) {
				t.Fatalf("point %d scalar %d: ScalarMult u = %x, X25519 = %x", i, j, got, want)
			}
		}
	}
}

// montgomeryU returns the little-endian Montgomery u = (1+y)/(1-y) of p.
func montgomeryU(p *Point) [32]byte {
	var zInv, y, num, den fe
	feInvert(&zInv, &p.z)
	feMul(&y, &p.y, &zInv)
	feAdd(&num, &feOne, &y)
	feSub(&den, &feOne, &y)
	feInvert(&den, &den)
	feMul(&num, &num, &den)
	var out [32]byte
	num.toBytes(&out)
	return out
}

// basePoint returns the standard generator (x, 4/5) with x
// non-negative... actually the standard base point has x odd?  The
// Ed25519 base point has the even (non-negative per our convention?)
// x recovered from y = 4/5 with sign bit 0 in the canonical encoding
// 0x58666...66.  We decode that encoding directly.
func basePoint(t *testing.T) *Point {
	t.Helper()
	enc := make([]byte, 32)
	for i := range enc {
		enc[i] = 0x66
	}
	enc[0] = 0x58
	p, err := Decode(enc)
	if err != nil {
		t.Fatalf("decoding standard base point: %v", err)
	}
	return p
}

// TestBasePointKnownFacts checks the decoded standard generator
// against facts pinned by the Ed25519 specification: y = 4/5, the
// point is on the curve, has order ℓ, and re-encodes to the same
// bytes.
func TestBasePointKnownFacts(t *testing.T) {
	b := basePoint(t)

	// y = 4/5 mod p.
	var zInv, y fe
	feInvert(&zInv, &b.z)
	feMul(&y, &b.y, &zInv)
	wantY := new(big.Int).ModInverse(big.NewInt(5), pBig)
	wantY.Mul(wantY, big.NewInt(4))
	wantY.Mod(wantY, pBig)
	if feToBig(t, &y).Cmp(wantY) != 0 {
		t.Fatalf("base point y != 4/5")
	}

	if !onCurve(b) {
		t.Fatalf("base point not on curve")
	}
	if b.IsSmallOrder() {
		t.Fatalf("base point claims small order")
	}

	// ℓ·B = identity certifies scalar mult against the true subgroup
	// order.
	var e [32]byte
	orderL.FillBytes(e[:])
	if !b.ScalarMult(&e).IsIdentity() {
		t.Fatalf("ℓ·B is not the identity")
	}

	enc := b.Encode(nil)
	want := basePointEncoding()
	if !bytes.Equal(enc, want) {
		t.Fatalf("base point re-encoding mismatch:\n got %x\nwant %x", enc, want)
	}
}

func basePointEncoding() []byte {
	enc := make([]byte, 32)
	for i := range enc {
		enc[i] = 0x66
	}
	enc[0] = 0x58
	return enc
}

// onCurve checks -x² + y² = 1 + d·x²·y² on the affine coordinates.
func onCurve(p *Point) bool {
	var zInv, x, y, x2, y2, lhs, rhs fe
	feInvert(&zInv, &p.z)
	feMul(&x, &p.x, &zInv)
	feMul(&y, &p.y, &zInv)
	feSquare(&x2, &x)
	feSquare(&y2, &y)
	feSub(&lhs, &y2, &x2)
	feMul(&rhs, &x2, &y2)
	feMul(&rhs, &rhs, &dConst)
	feAdd(&rhs, &rhs, &feOne)
	return feEqual(&lhs, &rhs)
}

// TestAddDoubleConsistency checks 2P computed by double against P+P
// by the general addition, and the group laws P+Q = Q+P and
// (P+Q)+R = P+(Q+R), on multiples of the base point.
func TestAddDoubleConsistency(t *testing.T) {
	b := basePoint(t)
	p := b.Double()
	if !p.Equal(b.Add(b)) {
		t.Fatalf("double(B) != B+B")
	}
	q := p.Double().Add(b) // 5B
	if !p.Add(q).Equal(q.Add(p)) {
		t.Fatalf("addition not commutative")
	}
	if !p.Add(q).Add(b).Equal(p.Add(q.Add(b))) {
		t.Fatalf("addition not associative")
	}
	if !p.Add(Identity()).Equal(p) {
		t.Fatalf("P + identity != P")
	}
	if !onCurve(q) {
		t.Fatalf("5B not on curve")
	}
}

// TestScalarMultMatchesRepeatedAdd pins the window ladder against
// naive repeated addition for small scalars.
func TestScalarMultMatchesRepeatedAdd(t *testing.T) {
	b := basePoint(t)
	acc := Identity()
	for k := 1; k <= 40; k++ {
		acc = acc.Add(b)
		var e [32]byte
		big.NewInt(int64(k)).FillBytes(e[:])
		if !b.ScalarMult(&e).Equal(acc) {
			t.Fatalf("ScalarMult(%d) != %d-fold addition", k, k)
		}
	}
}

// TestMapToPointProperties: Elligator outputs are on the curve, in
// the prime-order subgroup, deterministic, and round-trip through
// Encode/Decode.
func TestMapToPointProperties(t *testing.T) {
	for i := 0; i < 50; i++ {
		seed := sha512.Sum512([]byte{byte(i), byte(i >> 8), 0xAB})
		p := MapToPoint(seed[:])
		if !onCurve(p) {
			t.Fatalf("mapped point %d not on curve", i)
		}
		if p.IsSmallOrder() {
			t.Fatalf("mapped point %d has small order", i)
		}
		var e [32]byte
		orderL.FillBytes(e[:])
		if !p.ScalarMult(&e).IsIdentity() {
			t.Fatalf("mapped point %d not killed by ℓ", i)
		}
		q := MapToPoint(seed[:])
		if !p.Equal(q) {
			t.Fatalf("MapToPoint not deterministic at %d", i)
		}
		enc := p.Encode(nil)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decoding mapped point %d: %v", i, err)
		}
		if !dec.Equal(p) {
			t.Fatalf("encode/decode round-trip broke point %d", i)
		}
	}
}

// TestScalarMultCommutes is the heart of the commutative-encryption
// property: a·(b·P) == b·(a·P).
func TestScalarMultCommutes(t *testing.T) {
	seed := sha512.Sum512([]byte("commute"))
	p := MapToPoint(seed[:])
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		a := new(big.Int).Rand(rng, orderL)
		b := new(big.Int).Rand(rng, orderL)
		var ea, eb [32]byte
		a.FillBytes(ea[:])
		b.FillBytes(eb[:])
		ab := p.ScalarMult(&ea).ScalarMult(&eb)
		ba := p.ScalarMult(&eb).ScalarMult(&ea)
		if !ab.Equal(ba) {
			t.Fatalf("scalar mult does not commute at i=%d", i)
		}
	}
}

// TestDecodeRejections: non-canonical and off-curve encodings fail.
func TestDecodeRejections(t *testing.T) {
	// y = p (non-canonical encoding of 0).
	var buf [32]byte
	pLE := feFromBig(big.NewInt(0)) // placeholder; build p bytes by hand
	_ = pLE
	pBytes := new(big.Int).Set(pBig)
	pBytes.FillBytes(buf[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	if _, err := Decode(buf[:]); err == nil {
		t.Fatalf("Decode accepted y = p")
	}

	// All-ones is ≥ p with the sign bit set; also non-canonical.
	ones := bytes.Repeat([]byte{0xFF}, 32)
	if _, err := Decode(ones); err == nil {
		t.Fatalf("Decode accepted 0xFF…FF")
	}

	// Wrong length.
	if _, err := Decode(make([]byte, 31)); err == nil {
		t.Fatalf("Decode accepted 31 bytes")
	}

	// Find an off-curve y: y = 2 happens to be on no point iff
	// (y²-1)/(dy²+1) is non-square; search small ys for one that
	// Decode rejects with ErrNotOnCurve to make sure the path fires.
	found := false
	for y := int64(2); y < 40 && !found; y++ {
		var enc [32]byte
		big.NewInt(y).FillBytes(enc[:])
		for i, j := 0, 31; i < j; i, j = i+1, j-1 {
			enc[i], enc[j] = enc[j], enc[i]
		}
		if _, err := Decode(enc[:]); err == ErrNotOnCurve {
			found = true
		}
	}
	if !found {
		t.Fatalf("no small off-curve y rejected — sqrt check suspect")
	}

	// Identity decodes fine and reports small order.
	var encI [32]byte
	encI[0] = 1
	id, err := Decode(encI[:])
	if err != nil {
		t.Fatalf("decoding identity: %v", err)
	}
	if !id.IsIdentity() || !id.IsSmallOrder() {
		t.Fatalf("identity not recognized")
	}
}
