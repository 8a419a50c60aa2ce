package core

import (
	"context"
	"math/big"

	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// JoinSizeResult is what party R learns from the equijoin-size protocol
// of Section 5.2.  Beyond |T_S ⋈ T_R| and |V_S| (as a multiset), R also
// learns the distribution of duplicates in T_S.A — the leak the paper
// explicitly characterizes.  Package leakage computes exactly which
// partition-level overlaps that distribution reveals.
type JoinSizeResult struct {
	// JoinSize is |T_S ⋈ T_R| restricted to the join attribute, i.e.
	// Σ_v dup_R(v)·dup_S(v).
	JoinSize int
	// SenderMultisetSize is the number of rows in T_S.A (with duplicates).
	SenderMultisetSize int
	// SenderDuplicateDistribution maps a duplicate count d to the number
	// of distinct values in V_S having exactly d duplicates: the
	// distribution R inevitably observes from the repeated encryptions.
	SenderDuplicateDistribution map[int]int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).
	SenderDataVersion uint64
}

// JoinSizeSenderInfo is what party S learns: |T_R.A| as a multiset and
// the distribution of duplicates in T_R.A.
type JoinSizeSenderInfo struct {
	// ReceiverMultisetSize is the number of rows in T_R.A.
	ReceiverMultisetSize int
	// ReceiverDuplicateDistribution maps duplicate count to number of
	// distinct values of V_R with that count.
	ReceiverDuplicateDistribution map[int]int
}

// EquijoinSizeReceiver runs party R of the equijoin-size protocol of
// Section 5.2: the intersection-size protocol run on multisets, with the
// join size computed in the final step.  values is T_R.A *with*
// duplicates.
func EquijoinSizeReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*JoinSizeResult, error) {
	if cfg.Shards > 1 {
		// Multiset protocol: no dedup — every copy of a value partitions
		// to the same bucket, so each bucket is the full sub-multiset.
		results, peerTotal, peerVersion, err := runSharded(ctx, cfg, conn, wire.ProtoEquijoinSize, true, values, values,
			EquijoinSizeReceiver, func(r *JoinSizeResult) int { return r.SenderMultisetSize })
		if err != nil {
			return nil, err
		}
		res := &JoinSizeResult{
			SenderMultisetSize:          peerTotal,
			SenderDuplicateDistribution: make(map[int]int),
			SenderDataVersion:           peerVersion,
		}
		for _, r := range results {
			res.JoinSize += r.JoinSize
			// Distinct values never span shards, so the per-shard
			// duplicate distributions are disjoint and merge by addition.
			for d, n := range r.SenderDuplicateDistribution {
				res.SenderDuplicateDistribution[d] += n
			}
		}
		return res, nil
	}
	s := newSession(ctx, cfg, conn)
	// Steps 1-5 on the multiset: equal values hash (and encrypt) to equal
	// elements, so S will see T_R.A's duplicate structure — the leak the
	// paper accepts for this protocol.  Step 4(b) brings Z_R sorted.
	ph, err := s.setReceiverExchange(ctx, wire.ProtoEquijoinSize, values, "Z_R", true)
	if err != nil {
		return nil, err
	}

	// Step 6 (modified per Section 5.2): join size instead of
	// intersection size — Σ over distinct doubly-encrypted values of
	// count_R · count_S.
	sp := obs.StartSpan(ctx, "match")
	defer sp.End()
	ky := s.newKeyer()
	countR := multisetCountsKeyed(ph.reply, ky)
	countS := multisetCountsKeyed(ph.zS, ky)
	join := 0
	for k, cR := range countR {
		join += cR * countS[k]
	}

	return &JoinSizeResult{
		JoinSize:                    join,
		SenderMultisetSize:          ph.peerSize,
		SenderDuplicateDistribution: DuplicateDistributionElems(ph.yS),
		SenderDataVersion:           s.peerVersion,
	}, nil
}

// EquijoinSizeSender runs party S of the equijoin-size protocol of
// Section 5.2.  values is T_S.A *with* duplicates.
func EquijoinSizeSender(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*JoinSizeSenderInfo, error) {
	if cfg.Shards > 1 {
		results, peerTotal, _, err := runSharded(ctx, cfg, conn, wire.ProtoEquijoinSize, false, values, values,
			EquijoinSizeSender, func(r *JoinSizeSenderInfo) int { return r.ReceiverMultisetSize })
		if err != nil {
			return nil, err
		}
		info := &JoinSizeSenderInfo{
			ReceiverMultisetSize:          peerTotal,
			ReceiverDuplicateDistribution: make(map[int]int),
		}
		for _, r := range results {
			for d, n := range r.ReceiverDuplicateDistribution {
				info.ReceiverDuplicateDistribution[d] += n
			}
		}
		return info, nil
	}
	ph, err := sizeSender(ctx, cfg, conn, wire.ProtoEquijoinSize, values)
	if err != nil {
		return nil, err
	}
	return &JoinSizeSenderInfo{
		ReceiverMultisetSize:          ph.peerSize,
		ReceiverDuplicateDistribution: DuplicateDistributionElems(ph.yR),
	}, nil
}

// multisetCounts tallies occurrences of each element.
func multisetCounts(elems []*big.Int) map[string]int {
	out := make(map[string]int, len(elems))
	for _, e := range elems {
		out[elemKey(e)]++
	}
	return out
}

// DuplicateDistributionElems maps duplicate count d to the number of
// distinct elements occurring exactly d times — the "distribution of
// duplicates" of Section 5.2 as observed from an encrypted multiset.
func DuplicateDistributionElems(elems []*big.Int) map[int]int {
	counts := multisetCounts(elems)
	dist := make(map[int]int)
	for _, c := range counts {
		dist[c]++
	}
	return dist
}

// DuplicateDistributionValues is DuplicateDistributionElems for plaintext
// application values; the leakage analysis compares the two.
func DuplicateDistributionValues(values [][]byte) map[int]int {
	counts := make(map[string]int, len(values))
	for _, v := range values {
		counts[string(v)]++
	}
	dist := make(map[int]int)
	for _, c := range counts {
		dist[c]++
	}
	return dist
}
