package core

import (
	"context"

	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// SizeResult is what party R learns from the intersection-size protocol:
// the two sizes of Section 2.2.1 and nothing about membership.
type SizeResult struct {
	// IntersectionSize is |V_S ∩ V_R|.
	IntersectionSize int
	// SenderSetSize is |V_S|.
	SenderSetSize int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).
	SenderDataVersion uint64
}

// IntersectionSizeReceiver runs party R of the intersection-size
// protocol of Section 5.1.1.  The difference from the intersection
// protocol is confined to step 4(b): S returns only the lexicographically
// reordered encryptions of R's values, not paired with the originals, so
// R cannot match them back to its own values and learns only the overlap
// cardinality.
func IntersectionSizeReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SizeResult, error) {
	vR := dedup(values)
	if cfg.Shards > 1 {
		results, peerTotal, peerVersion, err := runSharded(ctx, cfg, conn, wire.ProtoIntersectionSize, true, vR, vR,
			IntersectionSizeReceiver, func(r *SizeResult) int { return r.SenderSetSize })
		if err != nil {
			return nil, err
		}
		res := &SizeResult{SenderSetSize: peerTotal, SenderDataVersion: peerVersion}
		for _, r := range results {
			res.IntersectionSize += r.IntersectionSize
		}
		return res, nil
	}
	s := newSession(ctx, cfg, conn)
	// Step 4(b) brings Z_R = f_eS(f_eR(h(V_R))) reordered
	// lexicographically: nothing that comes back can be aligned, by
	// design.
	ph, err := s.setReceiverExchange(ctx, wire.ProtoIntersectionSize, vR, "Z_R", true)
	if err != nil {
		return nil, err
	}

	// Step 6: |Z_S ∩ Z_R| = |V_S ∩ V_R|.
	sp := obs.StartSpan(ctx, "match")
	defer sp.End()
	ky := s.newKeyer()
	zSet := zSetOf(ky, ph.zS)
	size := 0
	for _, z := range ph.reply {
		if _, hit := zSet[ky.key(z)]; hit {
			size++
		}
	}
	return &SizeResult{IntersectionSize: size, SenderSetSize: ph.peerSize, SenderDataVersion: s.peerVersion}, nil
}

// IntersectionSizeSender runs party S of the intersection-size protocol
// of Section 5.1.1.
func IntersectionSizeSender(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SenderInfo, error) {
	vS := dedup(values)
	if cfg.Shards > 1 {
		_, peerTotal, _, err := runSharded(ctx, cfg, conn, wire.ProtoIntersectionSize, false, vS, vS, IntersectionSizeSender, receiverSetSize)
		if err != nil {
			return nil, err
		}
		return &SenderInfo{ReceiverSetSize: peerTotal}, nil
	}
	ph, err := sizeSender(ctx, cfg, conn, wire.ProtoIntersectionSize, vS)
	if err != nil {
		return nil, err
	}
	return &SenderInfo{ReceiverSetSize: ph.peerSize}, nil
}

// sizeSender is party S of both size protocols — intersection size
// (§5.1.1) on the deduplicated set, equijoin size (§5.2) on the
// multiset, whose own cache slot keeps the two states from aliasing:
// the shared steps 1-4(a), then step 4(b) ships Z_R = f_eS(Y_R)
// *reordered lexicographically* so R cannot match encryptions back to
// its values.  Sorting needs the complete vector, so the encryption
// cannot overlap the send; the sorted result still streams out chunked.
func sizeSender(ctx context.Context, cfg Config, conn transport.Conn, proto wire.Protocol, values [][]byte) (*senderPhase, error) {
	s := newSession(ctx, cfg, conn)
	ph, err := s.setSenderExchange(ctx, proto, values)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "re-encrypt")
	zR, err := s.encryptSet(ctx, ph.eS, ph.yR)
	if err != nil {
		sp.End()
		return nil, s.abort(ctx, err)
	}
	err = s.sendElems(ctx, sortedCopy(zR))
	sp.End()
	if err != nil {
		return nil, err
	}
	return ph, nil
}
