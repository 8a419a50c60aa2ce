package core

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// JoinRecord is one (value, extra-information) pair on S's side of the
// equijoin: ext(v) is everything in T_S pertaining to v — in the paper's
// words, "all records in T_S where T_S.A = v" — serialized by the caller
// (package reldb provides the serialization used by the applications).
type JoinRecord struct {
	Value []byte
	Ext   []byte
}

// JoinMatch is one joined value as learned by R: the value, and S's
// decrypted ext(v).
type JoinMatch struct {
	Value []byte
	Ext   []byte
}

// JoinResult is what party R learns from the equijoin protocol:
// V_S ∩ V_R with ext(v) for each element, plus |V_S|.
type JoinResult struct {
	// Matches holds one entry per v ∈ V_S ∩ V_R, in R's input order.
	Matches []JoinMatch
	// SenderSetSize is |V_S|.
	SenderSetSize int
	// SenderDataVersion is the data version S announced in its
	// handshake header (0 if S is unversioned).
	SenderDataVersion uint64
}

// EquijoinReceiver runs party R of the equijoin protocol of Section 4.3.
//
// Steps executed here (numbering from Section 4.3):
//
//	1-2. hash V_R, draw e_R, compute Y_R
//	3.   send Y_R sorted
//	6.   apply f_eR^{-1} to both encrypted components of each aligned
//	     reply, obtaining ⟨f_eS(h(v)), f_e'S(h(v))⟩ per v ∈ V_R
//	7.   match S's ⟨f_eS(h(v)), K(κ(v), ext(v))⟩ pairs on the first
//	     entry and decrypt ext(v) with κ(v) = f_e'S(h(v))
//	8.   return the matches (the caller computes T_S ⋈ T_R from them)
func EquijoinReceiver(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*JoinResult, error) {
	vR := dedup(values)
	if cfg.Shards > 1 {
		results, peerTotal, peerVersion, err := runSharded(ctx, cfg, conn, wire.ProtoEquijoin, true, vR, vR,
			EquijoinReceiver, func(r *JoinResult) int { return r.SenderSetSize })
		if err != nil {
			return nil, err
		}
		return mergeJoins(vR, results, peerTotal, peerVersion), nil
	}
	s := newSession(ctx, cfg, conn)
	st, err := s.equijoinReceiverRun(ctx, vR)
	if err != nil {
		return nil, err
	}
	return st.result(s.peerVersion), nil
}

// mergeJoins merges per-shard joins back into R's input order, like
// mergeIntersections.
func mergeJoins(vR [][]byte, results []*JoinResult, peerTotal int, peerVersion uint64) *JoinResult {
	idx := valueIndex(vR)
	matched := make([]*JoinMatch, len(vR))
	for _, r := range results {
		for j := range r.Matches {
			matched[idx[string(r.Matches[j].Value)]] = &r.Matches[j]
		}
	}
	res := &JoinResult{SenderSetSize: peerTotal, SenderDataVersion: peerVersion}
	for _, m := range matched {
		if m != nil {
			res.Matches = append(res.Matches, *m)
		}
	}
	return res
}

// equijoinState is the receiver-side state of one equijoin run that a
// standing query retains.  The pushed elements of a SubUpdate arrive as
// f_eS(h(v)) — exactly the keys of extByElem — so folding in a delta
// needs no exponentiations at all: update the map, then re-decrypt only
// the affected positions with the retained κ values.
type equijoinState struct {
	vR        [][]byte
	order     []int
	singleS   []*big.Int
	kappas    []*big.Int
	extByElem map[string][]byte
	matched   []*JoinMatch
	posByKey  map[string]int
	peerSize  int
	ky        *keyer
}

// result assembles the matches in R's input order.
func (st *equijoinState) result(peerVersion uint64) *JoinResult {
	res := &JoinResult{SenderSetSize: st.peerSize, SenderDataVersion: peerVersion}
	for _, jm := range st.matched {
		if jm != nil {
			res.Matches = append(res.Matches, *jm)
		}
	}
	return res
}

// equijoinReceiverRun executes the single-pipeline receiver body and
// returns the retained state (the exported entry point derives the
// result and drops it; the standing variant keeps it live).
func (s *session) equijoinReceiverRun(ctx context.Context, vR [][]byte) (*equijoinState, error) {
	// Steps 4+6 pipelined: receive ⟨f_eS(y), f_e'S(y)⟩ aligned with the
	// shipped Y_R (S preserves order instead of echoing y — the Section
	// 6.1 optimization applied to the 3-tuples) and strip R's own layer
	// from both components chunk by chunk:
	// f_eR^{-1}(f_eS(f_eR(h(v)))) = f_eS(h(v)) and likewise for e'_S.
	// Then step 5 (peer): receive the ⟨f_eS(h(v)), c(v)⟩ pairs, sorted by
	// the first entry.
	var (
		singleS, kappas, extElems []*big.Int
		extCts                    [][]byte
	)
	ph, err := s.receiverExchange(ctx, wire.ProtoEquijoin, vR, func(ctx context.Context, ph *receiverPhase) (err error) {
		if singleS, kappas, err = s.recvPairsDecrypt(ctx, ph.eR, len(vR), "f_eS(Y_R)", "f_e'S(Y_R)"); err != nil {
			return err
		}
		extElems, extCts, err = s.recvExtPairs(ctx, ph.peerSize, "f_eS(h(V_S))")
		return err
	})
	if err != nil {
		return nil, err
	}

	// Step 7: index S's pairs by first entry and match.
	sp := obs.StartSpan(ctx, "match-join")
	defer sp.End()
	ky := s.newKeyer()
	extByElem := make(map[string][]byte, len(extElems))
	for i, e := range extElems {
		extByElem[ky.key(e)] = extCts[i]
	}
	posByKey := make(map[string]int, len(vR))
	matched := make([]*JoinMatch, len(vR))
	for pos, idx := range ph.order {
		k := ky.key(singleS[pos])
		posByKey[k] = pos
		ct, hit := extByElem[k]
		if !hit {
			continue
		}
		ext, err := s.cfg.Cipher.Decrypt(kappas[pos], ct)
		if err != nil {
			return nil, s.abort(ctx, fmt.Errorf("core: decrypting ext(v): %w", err))
		}
		if s.counters != nil {
			s.counters.AddPayloadDecrypts(1)
		}
		matched[idx] = &JoinMatch{Value: vR[idx], Ext: ext}
	}
	return &equijoinState{
		vR:        vR,
		order:     ph.order,
		singleS:   singleS,
		kappas:    kappas,
		extByElem: extByElem,
		matched:   matched,
		posByKey:  posByKey,
		peerSize:  ph.peerSize,
		ky:        ky,
	}, nil
}

// EquijoinSender runs party S of the equijoin protocol of Section 4.3.
// records may repeat a value only with an identical Ext; conflicting
// duplicates are rejected, since ext(v) is defined per distinct value.
func EquijoinSender(ctx context.Context, cfg Config, conn transport.Conn, records []JoinRecord) (*SenderInfo, error) {
	// Dedup (and detect conflicting payloads) before partitioning so the
	// outer handshake announces |V_S| of the same set the buckets cover.
	vS, exts, err := dedupRecords(records)
	if err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		_, peerTotal, _, err := runSharded(ctx, cfg, conn, wire.ProtoEquijoin, false, vS, zipRecords(vS, exts), EquijoinSender, receiverSetSize)
		if err != nil {
			return nil, err
		}
		return &SenderInfo{ReceiverSetSize: peerTotal}, nil
	}
	s := newSession(ctx, cfg, conn)
	info, _, _, _, _, err := s.equijoinSenderRun(ctx, vS, exts)
	return info, err
}

// equijoinSenderRun executes the single-pipeline sender body and
// additionally returns the pinned keys and the sorted step-5 pairs so a
// standing sender can keep serving deltas.
func (s *session) equijoinSenderRun(ctx context.Context, vS, exts [][]byte) (*SenderInfo, *commutative.Key, *commutative.Key, []*big.Int, [][]byte, error) {
	peerSize, err := s.handshake(ctx, wire.ProtoEquijoin, len(vS), false)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}

	// Step 1: hash V_S; draw the two secret keys e_S and e'_S — or, on a
	// cache hit, replay the pinned keys together with the precomputed
	// step-5 pairs from an earlier run against this peer.  Both keys are
	// still needed live: the steps 3-4 pair exchange below encrypts R's
	// fresh Y_R under them on every run, warm or cold.
	var (
		xS          []*big.Int
		eS, ePrimeS *commutative.Key
		outElems    []*big.Int
		outExts     [][]byte
	)
	// precompute accumulates the cache-miss-path precomputation time
	// (step 1 here plus step 5 below); the exchange in between is not the
	// cache's to answer for, so it stays out of the histogram.
	var precompute time.Duration
	var phaseStart time.Time
	if s.lat != nil {
		phaseStart = time.Now()
	}
	ent, warm := s.cacheLookup()
	if warm {
		eS, ePrimeS = ent.Set.Key(), ent.ExtKey
		outElems, outExts = ent.Set.Elems(), ent.Set.Payload()
		if s.lat != nil {
			s.lat.Record(obs.LatCacheHit, time.Since(phaseStart))
		}
	} else if ent, warm = s.upgradeCachedEntry(ctx, len(vS), true); warm {
		// A stale entry was upgraded by delta: the pinned keys replay and
		// the step-5 pairs are already current (upgradeCachedEntry records
		// its own latency).
		eS, ePrimeS = ent.Set.Key(), ent.ExtKey
		outElems, outExts = ent.Set.Elems(), ent.Set.Payload()
	} else {
		sp := obs.StartSpan(ctx, "hash-to-group")
		xS, err = s.hashSet(vS)
		sp.End()
		if err != nil {
			return nil, nil, nil, nil, nil, s.abort(ctx, err)
		}
		eS, err = s.cfg.Scheme.GenerateKey(s.cfg.Rand)
		if err != nil {
			return nil, nil, nil, nil, nil, s.abort(ctx, fmt.Errorf("core: generating e_S: %w", err))
		}
		ePrimeS, err = s.cfg.Scheme.GenerateKey(s.cfg.Rand)
		if err != nil {
			return nil, nil, nil, nil, nil, s.abort(ctx, fmt.Errorf("core: generating e'_S: %w", err))
		}
		if s.lat != nil {
			precompute += time.Since(phaseStart)
		}
	}

	// Steps 3-4 pipelined: receive Y_R and reply with the aligned
	// ⟨f_eS(y), f_e'S(y)⟩ pairs — in streaming mode each chunk of Y_R is
	// double-encrypted and its pair chunk shipped while the next chunk
	// is still in flight.
	sp := obs.StartSpan(ctx, "exchange")
	_, err = s.recvEncryptPairsSend(ctx, eS, ePrimeS, peerSize, "Y_R")
	sp.End()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}

	// Step 5: for each v ∈ V_S, form ⟨f_eS(h(v)), K(f_e'S(h(v)), ext(v))⟩
	// — skipped wholesale on a warm run, which ships the cached pairs.
	if !warm {
		if s.lat != nil {
			phaseStart = time.Now()
		}
		sp = obs.StartSpan(ctx, "bulk-encrypt")
		firsts, err := s.encryptSet(ctx, eS, xS)
		if err != nil {
			sp.End()
			return nil, nil, nil, nil, nil, s.abort(ctx, err)
		}
		kappas, err := s.encryptSet(ctx, ePrimeS, xS)
		sp.End()
		if err != nil {
			return nil, nil, nil, nil, nil, s.abort(ctx, err)
		}
		sp = obs.StartSpan(ctx, "payload-encrypt")
		ciphertexts := make([][]byte, len(vS))
		for i := range vS {
			ciphertexts[i], err = s.cfg.Cipher.Encrypt(kappas[i], exts[i])
			if err != nil {
				sp.End()
				return nil, nil, nil, nil, nil, s.abort(ctx, fmt.Errorf("core: encrypting ext(v): %w", err))
			}
			if s.counters != nil {
				s.counters.AddPayloadEncrypts(1)
			}
		}
		sp.End()
		// Ship in lexicographic order of the first entry.
		perm := sortIndicesByElem(firsts)
		outElems = make([]*big.Int, len(vS))
		outExts = make([][]byte, len(vS))
		for pos, idx := range perm {
			outElems[pos] = firsts[idx]
			outExts[pos] = ciphertexts[idx]
		}
		if s.cfg.SetCache != nil {
			if cs, cerr := commutative.CachedSetFromSorted(eS, outElems, outExts); cerr == nil {
				s.cachePut(&CacheEntry{Set: cs, ExtKey: ePrimeS})
			}
		}
		if s.lat != nil {
			s.lat.Record(obs.LatCacheMiss, precompute+time.Since(phaseStart))
		}
	}
	sp = obs.StartSpan(ctx, "send-pairs")
	err = s.sendExtPairs(ctx, outElems, outExts)
	sp.End()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	return &SenderInfo{ReceiverSetSize: peerSize}, eS, ePrimeS, outElems, outExts, nil
}

// zipRecords zips values with their ext payloads (outside the entry
// point for the reason given at mergeIntersections).
func zipRecords(values, exts [][]byte) []JoinRecord {
	recs := make([]JoinRecord, len(values))
	for i := range values {
		recs[i] = JoinRecord{Value: values[i], Ext: exts[i]}
	}
	return recs
}

// dedupRecords splits records into parallel value/ext slices with
// duplicates removed, rejecting a value that appears with two different
// Ext payloads.
func dedupRecords(records []JoinRecord) (values [][]byte, exts [][]byte, err error) {
	seen := make(map[string]int, len(records))
	for _, rec := range records {
		k := string(rec.Value)
		if i, dup := seen[k]; dup {
			if !valuesEqual(exts[i], rec.Ext) {
				return nil, nil, fmt.Errorf("core: value %q has conflicting ext payloads", rec.Value)
			}
			continue
		}
		seen[k] = len(values)
		values = append(values, rec.Value)
		exts = append(exts, rec.Ext)
	}
	return values, exts, nil
}
