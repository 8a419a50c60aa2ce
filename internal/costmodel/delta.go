package costmodel

import "minshare/internal/wire"

// Delta-maintenance closed forms (PR 9).
//
// The S27 warm forms above price a requery whose sender set is
// *unchanged*.  With delta maintenance the set may have churned: the
// sender upgrades its cached encrypted set by hashing and re-encrypting
// only the changed values (commutative.CachedSet.ApplyDelta), so a
// requery after churn c costs the warm census plus O(c) — never the
// O(|V_S|) rebuild.  A standing query goes further: the base run's
// state is retained on both sides and each mutation batch crosses the
// wire as one SubUpdate, priced by the *UpdateOps forms.  All of these
// are certified operation-for-operation against live obs counters, as
// the warm forms are.

// intersectionDeltaUpgrade returns exactly what a delta-upgraded
// intersection-family requery adds over the pure warm run: hashing the
// churn (Ch per inserted and deleted value), one re-encryption per
// churned value under the pinned e_S, and the sort of the delta
// vectors.  Updated values (ext-only changes) cost nothing here — set
// membership is unchanged.
func intersectionDeltaUpgrade(nIns, nDel int) OpCounts {
	c := int64(nIns + nDel)
	return OpCounts{Ce: c, Ch: c, SortElems: c}
}

// IntersectionDeltaOps is the census of a requery whose sender upgraded
// its cached set by delta: the warm census over the *current* sizes
// plus the churn surcharge.  nS is the post-churn |V_S|.
func IntersectionDeltaOps(nS, nR, nIns, nDel int) OpCounts {
	return addOps(IntersectionOpsWarm(nS, nR), intersectionDeltaUpgrade(nIns, nDel))
}

// joinDeltaUpgrade returns exactly what a delta-upgraded equijoin
// requery adds over the pure warm run.  Each upserted value (inserted,
// or present with a changed ext) is hashed once and encrypted twice —
// under e_S for the pair vector and under e'_S for its κ(v) — plus one
// payload encryption K(κ(v), ext(v)); each deleted value is hashed and
// encrypted once under e_S to locate it in the sorted vector.
func joinDeltaUpgrade(nUps, nDel int) OpCounts {
	return OpCounts{
		Ce:        int64(2*nUps + nDel),
		Ch:        int64(nUps + nDel),
		CK:        int64(nUps),
		SortElems: int64(nUps + nDel),
	}
}

// JoinDeltaOps is the census of an equijoin requery whose sender
// upgraded its cached set by delta: the warm census over the current
// sizes plus the upsert/delete surcharge.  nS is the post-churn |V_S|.
func JoinDeltaOps(nS, nR, nUps, nDel, nIntersection int) OpCounts {
	return addOps(JoinOpsWarm(nS, nR, nIntersection), joinDeltaUpgrade(nUps, nDel))
}

// IntersectionUpdateOps is the census of ONE standing-query update for
// the intersection: the sender hashes and re-encrypts the churn under
// its pinned e_S (inside ApplyDelta, which also sorts the delta), and
// the receiver strips its own layer from every pushed element by
// re-encrypting it under the retained e_R — membership of z-set values
// is then a map update, free of exponentiations.  Total Ce is therefore
// exactly 2(nIns+nDel).
func IntersectionUpdateOps(nIns, nDel int) OpCounts {
	c := int64(nIns + nDel)
	return OpCounts{Ce: 2 * c, Ch: c, SortElems: c}
}

// JoinUpdateOps is the census of ONE standing-query update for the
// equijoin: the sender pays the joinDeltaUpgrade surcharge (hash,
// double-encrypt upserts, single-encrypt deletes, payload-encrypt
// upserts); the receiver pays NO exponentiations at all — the pushed
// elements arrive as f_eS(h(v)), the exact keys of its retained match
// index — and decrypts only the changed matches (newMatches payload
// decryptions with its retained κ values).
func JoinUpdateOps(nUps, nDel, newMatches int) OpCounts {
	o := joinDeltaUpgrade(nUps, nDel)
	o.CK += int64(newMatches)
	return o
}

func addOps(a, b OpCounts) OpCounts {
	return OpCounts{
		Ce:        a.Ce + b.Ce,
		Ch:        a.Ch + b.Ch,
		CK:        a.CK + b.CK,
		SortElems: a.SortElems + b.SortElems,
	}
}

// SubscribeWireCost is the exact census of opening a standing query
// from R's endpoint: one Subscribe frame.  (The closing SubEnd is
// priced by SubEndWireCost, since a subscription may span arbitrarily
// many updates between the two.)
func SubscribeWireCost() WireCost {
	return WireCost{FramesSent: 1, PayloadBytesSent: wire.EncodedSubscribeLen}
}

// SubEndWireCost is the census of closing the subscription from the
// side that sends the SubEnd frame.
func SubEndWireCost() WireCost {
	return WireCost{FramesSent: 1, PayloadBytesSent: wire.EncodedSubEndLen}
}

// IntersectionDeltaWireCost is the exact census of ONE intersection
// standing-query update from R's endpoint: R receives one SubUpdate
// carrying (nIns+nDel) element codewords and sends one SubAck.
func IntersectionDeltaWireCost(nIns, nDel, elemLen int) WireCost {
	return WireCost{
		FramesSent:       1,
		FramesRecv:       1,
		PayloadBytesSent: wire.EncodedSubAckLen,
		PayloadBytesRecv: wire.EncodedSubUpdateBaseLen + int64(nIns+nDel)*int64(elemLen),
	}
}

// JoinDeltaWireCost is the exact census of ONE equijoin standing-query
// update from R's endpoint: the SubUpdate additionally carries one
// length-prefixed ext ciphertext of extLen bytes per upsert.
func JoinDeltaWireCost(nUps, nDel, elemLen, extLen int) WireCost {
	w := IntersectionDeltaWireCost(nUps, nDel, elemLen)
	w.PayloadBytesRecv += int64(nUps) * (wire.ExtLenOverhead + int64(extLen))
	return w
}
