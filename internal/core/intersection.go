package core

import (
	"context"
	"fmt"
	"math/big"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// IntersectionResult is what party R learns from the intersection
// protocol: the set V_S ∩ V_R and the size |V_S| — exactly the contract
// of Section 2.2.1 — and nothing else.
type IntersectionResult struct {
	// Values is V_S ∩ V_R, in R's input order.
	Values [][]byte
	// SenderSetSize is |V_S| (part of the permitted information I).
	SenderSetSize int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).  A receiver that caches
	// results can compare it across runs to detect a stale counterpart.
	SenderDataVersion uint64
}

// SenderInfo is what party S learns from a protocol run: only |V_R|.
type SenderInfo struct {
	// ReceiverSetSize is |V_R|.
	ReceiverSetSize int
}

// IntersectionReceiver runs party R of the intersection protocol of
// Section 3.3 over conn.  values may contain duplicates; the distinct
// set V_R is used, as the paper prescribes.
//
// Protocol steps executed here (numbering from Section 3.3):
//
//	1-2. hash V_R, draw e_R, compute Y_R = f_eR(h(V_R))
//	3.   send Y_R to S, reordered lexicographically
//	5.   encrypt each y ∈ Y_S with e_R, giving Z_S; pair the aligned
//	     replies ⟨f_eR(h(v)), f_eS(f_eR(h(v)))⟩ back with their v
//	6.   select all v ∈ V_R whose double encryption lands in Z_S
func IntersectionReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*IntersectionResult, error) {
	vR := dedup(values)
	if cfg.Shards > 1 {
		results, peerTotal, peerVersion, err := runSharded(ctx, cfg, conn, wire.ProtoIntersection, true, vR, vR,
			IntersectionReceiver, func(r *IntersectionResult) int { return r.SenderSetSize })
		if err != nil {
			return nil, err
		}
		return mergeIntersections(vR, results, peerTotal, peerVersion), nil
	}
	s := newSession(ctx, cfg, conn)
	st, err := s.intersectionReceiverRun(ctx, vR)
	if err != nil {
		return nil, err
	}
	return st.result(s.peerVersion), nil
}

// mergeIntersections merges per-shard intersections back into R's
// input order: buckets partition vR, so each match names a unique input
// position.  It stays out of the entry point's body because psilint's
// leakflow treats an entry point's raw input stored into a struct field
// there as a source for every read of that field in the module.
func mergeIntersections(vR [][]byte, results []*IntersectionResult, peerTotal int, peerVersion uint64) *IntersectionResult {
	idx := valueIndex(vR)
	matched := make([]bool, len(vR))
	for _, r := range results {
		for _, v := range r.Values {
			matched[idx[string(v)]] = true
		}
	}
	res := &IntersectionResult{SenderSetSize: peerTotal, SenderDataVersion: peerVersion}
	for i, v := range vR {
		if matched[i] {
			res.Values = append(res.Values, v)
		}
	}
	return res
}

// intersectionState is the receiver-side state of one intersection run
// that a standing query retains: everything needed to fold a pushed
// delta into the result for O(churn) work.  zSet holds the
// double-encrypted sender values f_eR(f_eS(h(v))); doubles[pos] is the
// double encryption of R's own value at sorted position pos, and order
// maps sorted positions back to input indices.
type intersectionState struct {
	vR       [][]byte
	eR       *commutative.Key
	order    []int
	doubles  []*big.Int
	zSet     map[string]struct{}
	peerSize int
	ky       *keyer
}

// result evaluates the membership test over the current zSet.
func (st *intersectionState) result(peerVersion uint64) *IntersectionResult {
	inIntersection := make([]bool, len(st.vR))
	for pos, idx := range st.order {
		if _, hit := st.zSet[st.ky.key(st.doubles[pos])]; hit {
			inIntersection[idx] = true
		}
	}
	res := &IntersectionResult{SenderSetSize: st.peerSize, SenderDataVersion: peerVersion}
	for i, v := range st.vR {
		if inIntersection[i] {
			res.Values = append(res.Values, v)
		}
	}
	return res
}

// receiverPhase is party R's state after its half of a protocol's
// exchange.
type receiverPhase struct {
	peerSize int
	eR       *commutative.Key
	// order maps each position of the shipped (sorted) Y_R back to its
	// index in R's input.
	order []int
	// yS, zS and reply are filled by setReceiverExchange: Y_S, its
	// re-encryption Z_S = f_eR(Y_S), and the step-4(b) vector.
	yS, zS, reply []*big.Int
}

// receiverExchange runs party R's steps 1-3, common to all four
// protocols — handshake, hash the input (with the §3.2.2 collision
// check), draw e_R, compute Y_R = f_eR(h(V_R)), ship Y_R reordered
// lexicographically — then recv, the protocol's receive half, inside
// the same exchange span.  The sorted order is remembered so replies
// aligned with it (step 4(b) of §3.3, the pairs of §4.3) can be matched
// back to R's values.
func (s *session) receiverExchange(ctx context.Context, proto wire.Protocol, vR [][]byte, recv func(ctx context.Context, ph *receiverPhase) error) (*receiverPhase, error) {
	peerSize, err := s.handshake(ctx, proto, len(vR), true)
	if err != nil {
		return nil, err
	}

	// Step 1: hash the set (with the §3.2.2 collision check) and draw e_R.
	sp := obs.StartSpan(ctx, "hash-to-group")
	xR, err := s.hashSet(vR)
	sp.End()
	if err != nil {
		return nil, s.abort(ctx, err)
	}
	eR, err := s.cfg.Scheme.GenerateKey(s.cfg.Rand)
	if err != nil {
		return nil, s.abort(ctx, fmt.Errorf("core: generating e_R: %w", err))
	}

	// Step 2: Y_R = f_eR(h(V_R)).
	sp = obs.StartSpan(ctx, "bulk-encrypt")
	yR, err := s.encryptSet(ctx, eR, xR)
	sp.End()
	if err != nil {
		return nil, s.abort(ctx, err)
	}

	// Step 3: ship Y_R sorted.
	sp = obs.StartSpan(ctx, "exchange")
	defer sp.End()
	ph := &receiverPhase{peerSize: peerSize, eR: eR, order: sortIndicesByElem(yR)}
	sortedYR := make([]*big.Int, len(yR))
	for pos, idx := range ph.order {
		sortedYR[pos] = yR[idx]
	}
	if err := s.sendElems(ctx, sortedYR); err != nil {
		return nil, err
	}
	if err := recv(ctx, ph); err != nil {
		return nil, err
	}
	return ph, nil
}

// setReceiverExchange is receiverExchange for the three protocols that
// are §3.3 with only step 4(b) and step 6 changed — intersection,
// intersection size (§5.1.1) and equijoin size (§5.2).  Its receive
// half pipelines steps 4(a)+5 — receive Y_S (sorted, |V_S| elements)
// and compute Z_S = f_eR(Y_S), each chunk re-encrypted while the next
// is in flight — then receives the step-4(b) vector, labelled what4b:
// f_eS(Y_R) aligned with the shipped Y_R for the intersection (S "does
// not retransmit the y's back but just preserves the original order" —
// the Section 6.1 optimization), or Z_R itself sorted (sorted4b) for
// the size protocols, whose detachment from the y's is the whole point.
func (s *session) setReceiverExchange(ctx context.Context, proto wire.Protocol, vR [][]byte, what4b string, sorted4b bool) (*receiverPhase, error) {
	return s.receiverExchange(ctx, proto, vR, func(ctx context.Context, ph *receiverPhase) (err error) {
		if ph.yS, ph.zS, err = s.recvReencryptStream(ctx, ph.eR, ph.peerSize, "Y_S", true); err != nil {
			return err
		}
		ph.reply, err = s.recvElems(ctx, len(vR), what4b, sorted4b)
		return err
	})
}

// zSetOf indexes Z_S for the step-6 membership tests.
func zSetOf(ky *keyer, zS []*big.Int) map[string]struct{} {
	zSet := make(map[string]struct{}, len(zS))
	for _, z := range zS {
		zSet[ky.key(z)] = struct{}{}
	}
	return zSet
}

// intersectionReceiverRun executes the single-pipeline receiver body
// and returns the retained state (the exported entry point derives the
// result and drops it; the standing variant keeps it live).
func (s *session) intersectionReceiverRun(ctx context.Context, vR [][]byte) (*intersectionState, error) {
	ph, err := s.setReceiverExchange(ctx, wire.ProtoIntersection, vR, "f_eS(Y_R)", false)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "match")
	defer sp.End()
	ky := s.newKeyer()
	// Step 6 (v ∈ V_S ∩ V_R iff f_eS(f_eR(h(v))) ∈ Z_S) is evaluated by
	// result() over the retained state.
	return &intersectionState{
		vR:       vR,
		eR:       ph.eR,
		order:    ph.order,
		doubles:  ph.reply,
		zSet:     zSetOf(ky, ph.zS),
		peerSize: ph.peerSize,
		ky:       ky,
	}, nil
}

// IntersectionSender runs party S of the intersection protocol of
// Section 3.3 over conn.  S learns only |V_R|.
func IntersectionSender(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SenderInfo, error) {
	vS := dedup(values)
	if cfg.Shards > 1 {
		_, peerTotal, _, err := runSharded(ctx, cfg, conn, wire.ProtoIntersection, false, vS, vS, IntersectionSender, receiverSetSize)
		if err != nil {
			return nil, err
		}
		return &SenderInfo{ReceiverSetSize: peerTotal}, nil
	}
	s := newSession(ctx, cfg, conn)
	ph, err := s.intersectionSenderRun(ctx, vS)
	if err != nil {
		return nil, err
	}
	return &SenderInfo{ReceiverSetSize: ph.peerSize}, nil
}

// senderPhase is party S's state after steps 1-4(a) of the set-shaped
// protocols.
type senderPhase struct {
	peerSize int
	eS       *commutative.Key
	sortedYS []*big.Int
	yR       []*big.Int
}

// setSenderExchange runs party S's steps 1-4(a) shared by intersection,
// intersection size and equijoin size: handshake; hash V_S, draw e_S,
// compute Y_S — or, on a cache hit, replay the whole phase (hashing, key
// draw, bulk exponentiation, lexicographic reordering) from an earlier
// run against this peer; then receive Y_R and ship Y_S reordered
// lexicographically.  The two vectors are independent, so streaming
// mode runs the halves full-duplex; legacy mode keeps the lock-step
// recv-then-send order.
func (s *session) setSenderExchange(ctx context.Context, proto wire.Protocol, vS [][]byte) (*senderPhase, error) {
	peerSize, err := s.handshake(ctx, proto, len(vS), false)
	if err != nil {
		return nil, err
	}
	eS, sortedYS, err := s.ownEncryptedSet(ctx, vS)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "exchange")
	var yR []*big.Int
	err = s.duplex(ctx, true,
		func(ctx context.Context) error { return s.sendElems(ctx, sortedYS) },
		func(ctx context.Context) error {
			var rerr error
			yR, rerr = s.recvElems(ctx, peerSize, "Y_R", true)
			return rerr
		})
	sp.End()
	if err != nil {
		return nil, err
	}
	return &senderPhase{peerSize: peerSize, eS: eS, sortedYS: sortedYS, yR: yR}, nil
}

// intersectionSenderRun executes the single-pipeline sender body and
// returns the phase state, whose e_S and sorted encrypted set let a
// standing sender keep serving deltas under the pinned key.
func (s *session) intersectionSenderRun(ctx context.Context, vS [][]byte) (*senderPhase, error) {
	ph, err := s.setSenderExchange(ctx, wire.ProtoIntersection, vS)
	if err != nil {
		return nil, err
	}
	// Step 4(b): encrypt each y ∈ Y_R with e_S and send back, preserving
	// the received order so R can match without the y's being repeated —
	// chunk i on the wire while chunk i+1 is still exponentiating.
	if _, err := s.streamEncryptSend(ctx, ph.eS, ph.yR); err != nil {
		return nil, err
	}
	return ph, nil
}

// sortIndicesByElem returns a permutation perm such that
// elems[perm[0]] <= elems[perm[1]] <= ... in numeric (= wire
// lexicographic) order.
func sortIndicesByElem(elems []*big.Int) []int {
	perm := make([]int, len(elems))
	for i := range perm {
		perm[i] = i
	}
	sortSlice(perm, func(a, b int) bool { return elems[a].Cmp(elems[b]) < 0 })
	return perm
}
