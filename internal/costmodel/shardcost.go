package costmodel

import (
	"time"

	"minshare/internal/wire"
)

// Shard-parallel closed forms.
//
// A k-shard run (core.Config.Shards = k) is one outer handshake plus k
// independent sub-protocols, one per hash-partition bucket.  Its census
// is therefore exactly the sum of the per-bucket Section 6.1 censuses
// plus two sharding surcharges, both certified operation-for-operation
// by the core cross-check tests:
//
//   - Partitioning: each party hashes every value once more to route it
//     to its bucket (the partitioner keys on h(v)), so Ch gains
//     |V_S| + |V_R| on top of the per-bucket hashing.
//   - Envelope: the outer handshake carries the extended sharded header
//     (wire.ShardedHeaderLen) in each direction, and every sub-protocol
//     pays its own two sub-headers inside its mux stream.
//
// The censuses below count codec frames, the layer the obs counters
// observe.  The mux's one-byte shard tag per data frame and its credit
// control frames live strictly below that layer and are not part of the
// protocol census (they are bounded by frames + k·⌈frames/window⌉ extra
// bytes, negligible against the codewords).

// sumShards folds a per-bucket census over paired shard size vectors.
// shardS and shardR must have equal length k; entry i holds the bucket
// sizes |V_S,i| and |V_R,i|.
func sumShards(shardS, shardR []int, per func(nS, nR int) OpCounts) OpCounts {
	var total OpCounts
	for i := range shardS {
		o := per(shardS[i], shardR[i])
		total.Ce += o.Ce
		total.Ch += o.Ch
		total.CK += o.CK
		total.SortElems += o.SortElems
	}
	return total
}

// partitionHashes is the Ch surcharge of routing both sets to buckets.
func partitionHashes(shardS, shardR []int) int64 {
	var n int64
	for i := range shardS {
		n += int64(shardS[i] + shardR[i])
	}
	return n
}

// ShardedIntersectionOps returns the exact census of a k-shard
// intersection run: Σ_i IntersectionOps(|V_S,i|, |V_R,i|) plus the
// partition hashes.  Ce is unchanged from the unsharded run — sharding
// redistributes the exponentiations, it does not add any — while Ch
// doubles to 2(|V_S|+|V_R|).
func ShardedIntersectionOps(shardS, shardR []int) OpCounts {
	o := sumShards(shardS, shardR, IntersectionOps)
	o.Ch += partitionHashes(shardS, shardR)
	return o
}

// ShardedIntersectionSizeOps equals ShardedIntersectionOps, mirroring
// the unsharded equivalence.
func ShardedIntersectionSizeOps(shardS, shardR []int) OpCounts {
	return ShardedIntersectionOps(shardS, shardR)
}

// ShardedJoinSizeOps is ShardedIntersectionOps on the per-bucket
// multiset sizes (rows with duplicates), per Section 5.2.  Every copy
// of a value routes to the same bucket, so the buckets are the full
// sub-multisets and partitioning hashes every row.
func ShardedJoinSizeOps(shardS, shardR []int) OpCounts {
	return ShardedIntersectionOps(shardS, shardR)
}

// ShardedJoinOps returns the exact census of a k-shard equijoin:
// Σ_i JoinOps(|V_S,i|, |V_R,i|, |V_S,i ∩ V_R,i|) plus the partition
// hashes.  shardI holds the per-bucket intersection sizes.
func ShardedJoinOps(shardS, shardR, shardI []int) OpCounts {
	var total OpCounts
	for i := range shardS {
		o := JoinOps(shardS[i], shardR[i], shardI[i])
		total.Ce += o.Ce
		total.Ch += o.Ch
		total.CK += o.CK
		total.SortElems += o.SortElems
	}
	total.Ch += partitionHashes(shardS, shardR)
	return total
}

// ShardedKeyGens returns the commutative key draws of a k-shard run per
// party: each sub-session draws its own keys, so the receiver and the
// intersection-family sender draw k each, and the equijoin sender 2k.
func ShardedKeyGens(k int, perShard int) int64 { return int64(k) * int64(perShard) }

// Plus adds another census to w componentwise (frames and payload bytes;
// the derived on-wire totals follow).
func (w WireCost) Plus(o WireCost) WireCost {
	w.FramesSent += o.FramesSent
	w.FramesRecv += o.FramesRecv
	w.PayloadBytesSent += o.PayloadBytesSent
	w.PayloadBytesRecv += o.PayloadBytesRecv
	return w
}

// shardedOuterWireCost is the coordinator's own envelope: one extended
// sharded handshake header in each direction and nothing else — after
// the outer handshake, every frame belongs to some sub-session.
// outerHeaderLen is wire.ShardedHeaderLen for the negotiated backend.
func shardedOuterWireCost(outerHeaderLen int64) WireCost {
	return WireCost{
		FramesSent:       1,
		FramesRecv:       1,
		PayloadBytesSent: outerHeaderLen,
		PayloadBytesRecv: outerHeaderLen,
	}
}

// ShardedIntersectionWireCost returns the exact frame/byte census of a
// k-shard intersection run from R's endpoint: the outer envelope plus
// one full per-bucket census per shard (each sub-session exchanges its
// own classic headers inside its mux stream).  chunk <= 0 runs the
// sub-protocols in legacy one-shot framing.
func ShardedIntersectionWireCost(shardS, shardR []int, elemLen, chunk int) WireCost {
	w := shardedOuterWireCost(wire.ShardedHeaderLen(0, len(shardS)))
	for i := range shardS {
		w = w.Plus(IntersectionWireCostChunked(shardS[i], shardR[i], elemLen, chunk))
	}
	return w
}

// ShardedJoinWireCost is the equijoin analogue of
// ShardedIntersectionWireCost.
func ShardedJoinWireCost(shardS, shardR []int, elemLen, extLen, chunk int) WireCost {
	w := shardedOuterWireCost(wire.ShardedHeaderLen(0, len(shardS)))
	for i := range shardS {
		w = w.Plus(JoinWireCostChunked(shardS[i], shardR[i], elemLen, extLen, chunk))
	}
	return w
}

// ---------------------------------------------------------------------
// Shard-parallel wall-clock model
// ---------------------------------------------------------------------

// PipelinedWall models the wall clock of k equal work slices flowing
// through a two-stage pipeline (compute against communication): the
// slower stage runs continuously once filled, and the faster stage adds
// only its first slice —
//
//	T(k) = (k−1)/k · max(Tc, Tm) + (Tc + Tm)/k
//
// which is Tc + Tm at k = 1 and tends to max(Tc, Tm) as k grows.  This
// is the mechanism by which sharding buys wall-clock time even on one
// processor: sub-protocols overlap their exponentiation with siblings'
// link time.
func PipelinedWall(compute, comm time.Duration, k int) time.Duration {
	if k <= 1 {
		return compute + comm
	}
	mx := compute
	if comm > mx {
		mx = comm
	}
	return time.Duration((int64(k-1)*int64(mx) + int64(compute) + int64(comm)) / int64(k))
}

// ShardedWallEstimate projects the wall clock of a k-shard run with p
// processors: the bulk exponentiation work divides across min(k, p)
// concurrent sub-sessions (a shard is the unit of compute parallelism),
// and the slices then pipeline against the link per PipelinedWall.
// With k = 1 or p = 0 this degrades to the sequential compute + comm.
func ShardedWallEstimate(compute, comm time.Duration, k, p int) time.Duration {
	if k < 1 {
		k = 1
	}
	workers := k
	if p >= 1 && p < workers {
		workers = p
	}
	if p < 1 {
		workers = 1
	}
	return PipelinedWall(compute/time.Duration(workers), comm, k)
}
