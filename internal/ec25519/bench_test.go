package ec25519

import (
	"crypto/sha512"
	"testing"
)

// Microbenchmarks for the per-element kernels: one Apply is Decode +
// ScalarMult + Encode, one hash-to-element is MapToPoint + Encode.
//
//	go test -run xxx -bench . ./internal/ec25519

var (
	benchA = fe{l0: 0x5f2a3b1c9d8e7, l1: 0x3a4b5c6d7e8f9, l2: 0x1234567890abc, l3: 0x7edcba9876543, l4: 0x2468ace13579b}
	benchB = fe{l0: 0x13579bdf02468, l1: 0x7654321fedcba, l2: 0x0f1e2d3c4b5a6, l3: 0x6a5b4c3d2e1f0, l4: 0x1111222233334}
	benchP *Point
	benchE [32]byte
)

func init() {
	seed := sha512.Sum512([]byte("minshare/ec25519 bench point"))
	benchP = MapToPoint(seed[:])
	s := sha512.Sum512([]byte("minshare/ec25519 bench scalar"))
	copy(benchE[:], s[:32])
	benchE[0] &= 0x0f // below ℓ's bit length, like a key scalar
}

func BenchmarkFeMul(b *testing.B) {
	v := benchA
	for i := 0; i < b.N; i++ {
		feMul(&v, &v, &benchB)
	}
}

func BenchmarkFeSquare(b *testing.B) {
	v := benchA
	for i := 0; i < b.N; i++ {
		feSquare(&v, &v)
	}
}

func BenchmarkFeInvert(b *testing.B) {
	v := benchA
	for i := 0; i < b.N; i++ {
		feInvert(&v, &v)
	}
}

func BenchmarkMapToPoint(b *testing.B) {
	in := sha512.Sum512([]byte("minshare/ec25519 bench map"))
	for i := 0; i < b.N; i++ {
		in[0] = byte(i)
		MapToPoint(in[:])
	}
}

func BenchmarkScalarMult(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchP.ScalarMult(&benchE)
	}
}

func BenchmarkDecode(b *testing.B) {
	enc := benchP.Encode(nil)
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	buf := make([]byte, 0, EncodedLen)
	for i := 0; i < b.N; i++ {
		buf = benchP.Encode(buf[:0])
	}
}
