package minshare

// PR7 group-backend benchmarks (the BENCH_PR7.json numbers): the same
// protocols end to end over each registered commutative-encryption
// backend.  The paper's Section 6.1 analysis prices everything in C_e;
// these benches show what swapping the C_e implementation buys — the
// Curve25519 backend delivers ≥ the security of the 1024-bit safe-prime
// group (~128-bit vs ~80-bit) at a fraction of the per-operation cost,
// so whole protocol runs speed up by the same factor the paper predicts
// from the C_e ratio.

import (
	"context"
	"testing"

	"minshare/internal/core"
	"minshare/internal/costmodel"
	"minshare/internal/group"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// benchBackends are the backends the cross-backend benches compare: the
// paper's own parameters (1024-bit safe prime) against the EC backend
// at equivalent-or-better security.
func benchBackends() []group.Backend {
	return []group.Backend{group.MustBuiltin(group.Bits1024), group.EC25519()}
}

func benchmarkBackendIntersection(b *testing.B, be group.Backend, n int) {
	vR, vS := benchSets(n)
	cfg := core.Config{Group: be}
	b.ReportMetric(float64(costmodel.IntersectionOps(n, n).Ce), "Ce-ops")
	var snap obs.CounterSnapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, snap = runPairBench(b,
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionReceiver(ctx, cfg, conn, vR)
				return err
			},
			func(ctx context.Context, conn transport.Conn) error {
				_, err := core.IntersectionSender(ctx, cfg, conn, vS)
				return err
			})
	}
	b.ReportMetric(float64(snap.ModExps()), "Ce-observed")
}

// BenchmarkGroupBackendIntersection is the headline PR7 number: the full
// intersection protocol, same sets, per backend.  The observed C_e
// census (modexps for QR, scalar mults for EC — the counters are
// backend-agnostic) is identical across backends; only the cost of one
// C_e changes.
func BenchmarkGroupBackendIntersection(b *testing.B) {
	n := 128
	if testing.Short() {
		n = 8
	}
	for _, be := range benchBackends() {
		b.Run(be.Name(), func(b *testing.B) { benchmarkBackendIntersection(b, be, n) })
	}
}

// BenchmarkGroupBackendEquijoin runs the equijoin (2n_S + 5n_R C_e plus
// n_S + shared K-encryptions) per backend; the hybrid K cipher prices
// its header at the backend's element width.
func BenchmarkGroupBackendEquijoin(b *testing.B) {
	n := 64
	if testing.Short() {
		n = 8
	}
	for _, be := range benchBackends() {
		b.Run(be.Name(), func(b *testing.B) {
			vR, vS := benchSets(n)
			recs := make([]core.JoinRecord, len(vS))
			for i, v := range vS {
				recs[i] = core.JoinRecord{Value: v, Ext: []byte("payload for " + string(v))}
			}
			cfg := core.Config{Group: be}
			b.ReportMetric(float64(costmodel.JoinOps(n, n, n/2).Ce), "Ce-ops")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runPairBench(b,
					func(ctx context.Context, conn transport.Conn) error {
						_, err := core.EquijoinReceiver(ctx, cfg, conn, vR)
						return err
					},
					func(ctx context.Context, conn transport.Conn) error {
						_, err := core.EquijoinSender(ctx, cfg, conn, recs)
						return err
					})
			}
		})
	}
}

// BenchmarkGroupBackendEquijoinWarm replays the S27 encrypted-set cache
// per backend: the sender's bulk C_e work disappears on warm runs for
// both backends, and the cache's byte accounting (32-byte EC points vs
// word-aligned big.Int storage) keeps the same LRU budget honest.
func BenchmarkGroupBackendEquijoinWarm(b *testing.B) {
	nS, nR := 1000, 100
	if testing.Short() {
		nS, nR = 32, 8
	}
	for _, be := range benchBackends() {
		b.Run(be.Name(), func(b *testing.B) {
			vR, recs := cacheBenchSets(nS, nR)
			cache := core.NewSenderSetCache(0, nil)
			cfgS := core.Config{Group: be, SetCache: cache, CacheKey: core.SetCacheKey{
				PeerHost: "bench-peer", Table: "t", Version: 1, Protocol: wire.ProtoEquijoin,
			}}
			cfgR := core.Config{Group: be}
			runOnce := func() {
				ctx := context.Background()
				connR, connS := transport.Pipe()
				defer connR.Close()
				ch := make(chan error, 1)
				go func() {
					_, err := core.EquijoinSender(ctx, cfgS, connS, recs)
					ch <- err
				}()
				res, err := core.EquijoinReceiver(ctx, cfgR, connR, vR)
				if err != nil {
					b.Fatal(err)
				}
				if err := <-ch; err != nil {
					b.Fatal(err)
				}
				if len(res.Matches) != nR/2 {
					b.Fatalf("matches = %d, want %d", len(res.Matches), nR/2)
				}
			}
			b.ReportMetric(float64(costmodel.JoinOpsWarm(nS, nR, nR/2).Ce), "Ce-warm")
			runOnce() // populate, untimed
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runOnce()
			}
		})
	}
}

// BenchmarkGroupBackendCe is the per-operation C_e comparison the
// end-to-end ratios reduce to: one Apply per backend over a mapped
// element.
func BenchmarkGroupBackendCe(b *testing.B) {
	for _, be := range benchBackends() {
		b.Run(be.Name(), func(b *testing.B) {
			uniform := make([]byte, be.HashInputLen())
			for i := range uniform {
				uniform[i] = byte(i*37 + 11)
			}
			x := be.MapToElement(uniform)
			e, err := be.RandomScalar(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := be.Apply(e, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupBackendHash compares the other oracle half: hash-to-QR
// (one squaring after an XOF expansion sized to the modulus) vs
// hash-to-curve (Elligator2 + cofactor clearing over 64 XOF bytes).
func BenchmarkGroupBackendHash(b *testing.B) {
	for _, be := range benchBackends() {
		b.Run(be.Name(), func(b *testing.B) {
			uniform := make([]byte, be.HashInputLen())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				uniform[0], uniform[1] = byte(i), byte(i>>8)
				_ = be.MapToElement(uniform)
			}
		})
	}
}
