package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// Shard-parallel protocol execution.
//
// The paper's application estimates (Section 6.2) assume "P processors
// that we can utilize in parallel"; this file supplies the distribution
// mechanism.  The random oracle h doubles as a partitioner: both
// parties split their value sets into k buckets by a shared hash prefix
// of h(v), so V_S ∩ V_R = ∪_i (V_S,i ∩ V_R,i) exactly — a value's
// bucket depends only on h(v), which both parties compute identically —
// and one logical run becomes k independent sub-protocols.  The
// sub-sessions run concurrently over a single connection, multiplexed
// by transport.Mux with per-shard flow control, and a coordinator
// merges the sub-results back into the unsharded result shape.
//
// Wire compatibility: the outer handshake announces the shard count
// (wire.Header.Shards); each sub-session then runs the classic
// protocol, byte-identical to an unsharded run of its bucket, inside
// its mux stream.  A session with Shards <= 1 never reaches this file
// and is byte-identical to pre-shard releases end to end.
//
// Leakage: each sub-handshake announces that bucket's size, so the
// peer learns the per-shard split of the set — the only information a
// sharded run reveals beyond its unsharded counterpart.  The split is
// a uniform multinomial over k bins (the partitioner hashes through
// SHA-256), and leakage.ShardSplit quantifies the bits it carries.
//
// Failure atomicity: one failing shard cancels every sibling via the
// fan-out context, the mux poisons all streams on any transport error,
// and the coordinator returns only an error — never a partial merge.

// shardOf maps one hashed element to its bucket.  The prefix is taken
// from SHA-256 of the element's fixed-width wire encoding rather than
// from h(v)'s own top bits: h(v) is uniform on [0, p) (or on the curve
// encoding), so its raw top bits are biased wherever the modulus is not
// a power of two, and the paper's oracle already models h as random —
// deriving the prefix through a hash keeps every bucket binomially
// balanced regardless of the group.
func shardOf(buf []byte, k int) int {
	sum := sha256.Sum256(buf)
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(k))
}

// shardPartition splits values into k buckets keyed by the shard of
// h(v), returning for each bucket the values and their indices in the
// input slice (for order-preserving merges).  Hashing goes through the
// session's (observed) oracle, so the partition pass is visible to the
// cost accounting: a sharded run pays each value's oracle hash twice,
// once here and once inside its sub-protocol.
func (s *session) shardPartition(values [][]byte, k int) (buckets [][][]byte, indices [][]int) {
	xs := s.cfg.Oracle.HashAll(values)
	buckets = make([][][]byte, k)
	indices = make([][]int, k)
	buf := make([]byte, s.codec.ElemLen())
	for i, x := range xs {
		x.FillBytes(buf)
		sh := shardOf(buf, k)
		buckets[sh] = append(buckets[sh], values[i])
		indices[sh] = append(indices[sh], i)
	}
	return buckets, indices
}

// lockedReader serializes a shared randomness source across the
// concurrent sub-sessions.  crypto/rand.Reader is already safe, so the
// wrapper is only applied to caller-supplied sources (seeded test
// streams), which are typically not.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// shardBaseConfig prepares the template config the sub-sessions derive
// from: sub-runs are themselves unsharded, and a shared Rand must
// tolerate concurrent key draws.
func shardBaseConfig(cfg Config) Config {
	cfg.Shards = 0
	if cfg.Rand != nil {
		cfg.Rand = &lockedReader{r: cfg.Rand}
	}
	return cfg
}

// shardConfig specializes the template for bucket i of k.  The cache
// key gains the shard coordinates so cached sender state replays only
// for the same partition of the same partitioning (see SetCacheKey).
func shardConfig(cfg Config, i, k int) Config {
	cfg.CacheKey.Shard = uint8(i)
	cfg.CacheKey.Shards = uint8(k)
	return cfg
}

// checkShardCount validates a coordinator's configured shard count
// before any traffic is exchanged.
func checkShardCount(k int) error {
	if k < 2 || k > transport.MaxShards {
		return fmt.Errorf("core: shard count %d out of range [2, %d]", k, transport.MaxShards)
	}
	return nil
}

// shardFanout runs one sub-protocol per shard concurrently and gathers
// their results.  The first failure cancels every sibling — sub-session
// sends and receives observe the fan-out context, and the failing
// shard's own abort has already notified the peer's counterpart, whose
// coordinator cancels symmetrically — so a sharded session fails
// atomically on both sides.  shardFanout returns either all k results
// or the root-cause error, never a mix.
func shardFanout[R any](ctx context.Context, k int, run func(ctx context.Context, i int) (R, error)) ([]R, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]R, k)
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func(i int) {
			defer wg.Done()
			sp := obs.StartSpan(fctx, fmt.Sprintf("shard-%d", i))
			defer sp.End()
			r, err := run(fctx, i)
			if err != nil {
				// First error wins: later failures are usually the
				// cancellation echo of this one.
				failOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// shardSession opens a sharded run: outer handshake on the raw conn
// (announcing the total size and the shard count), then the mux.  The
// returned mux is started; the caller must Stop it.  No frame may touch
// the raw conn after this returns.
func shardSession(ctx context.Context, outer *session, proto wire.Protocol, mySize int, sendFirst bool, conn transport.Conn) (peerTotal int, mux *transport.Mux, err error) {
	peerTotal, err = outer.handshake(ctx, proto, mySize, sendFirst)
	if err != nil {
		return 0, nil, err
	}
	mux, err = transport.NewMux(conn, outer.cfg.Shards)
	if err != nil {
		return 0, nil, outer.abort(ctx, err)
	}
	mux.Start()
	return peerTotal, mux, nil
}

// checkShardSizeSum verifies that the per-shard sizes the peer's
// sub-handshakes announced add up to the total its outer handshake
// declared.  A mismatch means the peer partitioned a different set
// than it announced (or partitioned dishonestly); the session fails
// rather than returning a result built from inconsistent claims.
func checkShardSizeSum(sizes []int, total int) error {
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if sum != total {
		return fmt.Errorf("%w: peer shard sizes sum to %d, its handshake announced %d", ErrMalformedReply, sum, total)
	}
	return nil
}

// valueIndex maps each (distinct) value to its position in vs.
func valueIndex(vs [][]byte) map[string]int {
	idx := make(map[string]int, len(vs))
	for i, v := range vs {
		idx[string(v)] = i
	}
	return idx
}

// runSharded is the one shard coordinator behind every protocol's
// Shards > 1 mode.  It validates the shard count, runs the outer
// handshake for proto on the raw conn (the receiver role sends first),
// starts the mux, partitions values into buckets and hands bucket i —
// the inputs at the same indices, so equijoin records travel with their
// values — to run over shard i, and checks the peer's per-shard sizes
// (peerSize of each sub-result) against its announced total.  The
// caller merges the k results; peerTotal and peerVersion are the outer
// handshake's.  values is what the partitioner hashes: the same
// (deduplicated, or multiset) slice the unsharded protocol would run
// on, aligned index for index with inputs.
func runSharded[In, R any](ctx context.Context, cfg Config, conn transport.Conn, proto wire.Protocol, receiver bool,
	values [][]byte, inputs []In,
	run func(context.Context, Config, transport.Conn, []In) (R, error),
	peerSize func(R) int,
) (results []R, peerTotal int, peerVersion uint64, err error) {
	k := cfg.Shards
	if err := checkShardCount(k); err != nil {
		return nil, 0, 0, err
	}
	outer := newSession(ctx, cfg, conn)
	peerTotal, mux, err := shardSession(ctx, outer, proto, len(values), receiver, conn)
	if err != nil {
		return nil, 0, 0, err
	}
	defer mux.Stop()
	_, indices := outer.shardPartition(values, k)
	base := shardBaseConfig(cfg)
	results, err = shardFanout(ctx, k, func(ctx context.Context, i int) (R, error) {
		bucket := make([]In, len(indices[i]))
		for j, x := range indices[i] {
			bucket[j] = inputs[x]
		}
		return run(ctx, shardConfig(base, i, k), mux.Shard(i), bucket)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	sizes := make([]int, k)
	for i, r := range results {
		sizes[i] = peerSize(r)
	}
	if err := checkShardSizeSum(sizes, peerTotal); err != nil {
		return nil, 0, 0, err
	}
	return results, peerTotal, outer.peerVersion, nil
}

// receiverSetSize is the peer-size accessor of the senders whose info
// is only |V_R|.
func receiverSetSize(info *SenderInfo) int { return info.ReceiverSetSize }
