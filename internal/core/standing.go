package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// ErrSubscriptionEnded reports that the peer closed a standing query —
// the sender because it can no longer serve deltas (key rotation, churn
// over the bound, change log exhausted), the receiver by unsubscribing.
// The last delivered result remains valid; the subscriber re-runs the
// full protocol to continue.
var ErrSubscriptionEnded = errors.New("core: subscription ended")

// errStandingSharded rejects standing queries on sharded sessions: a
// table-level delta spans all hash-prefix partitions, so an incremental
// push would need the delta re-partitioned per shard.  Sharded callers
// re-run the protocol instead.
var errStandingSharded = errors.New("core: standing queries require an unsharded session (Shards <= 1)")

// Standing is party R's half of a standing query — the subscription
// variant of the intersection (Section 3.3) or the equijoin (Section
// 4.3): after the base run, R retains its session state and folds each
// SubUpdate the sender pushes into the result for O(churn) work instead
// of an O(|V_S|+|V_R|) re-run.  R is the protocol's result type.
//
// A Standing query is not safe for concurrent use.
type Standing[R any] struct {
	s       *session
	st      retained[R]
	res     R
	version uint64
	closed  bool
}

// retained is the receiver state a standing query keeps live.  fold
// applies one pushed update whose span and elements Await has already
// validated — the HasExt rule is the protocol's own — and reports a
// malformed update as an error; result derives the current answer.
type retained[R any] interface {
	fold(ctx context.Context, s *session, u wire.SubUpdate) error
	result(peerVersion uint64) R
}

// subscribe turns a finished base run into a standing query: it records
// the base result and asks the sender for deltas from the version the
// handshake announced.
func subscribe[R any](ctx context.Context, s *session, st retained[R]) (*Standing[R], error) {
	q := &Standing[R]{s: s, st: st, version: s.peerVersion}
	q.res = st.result(q.version)
	if err := s.send(ctx, wire.Subscribe{FromVersion: q.version}); err != nil {
		return nil, err
	}
	return q, nil
}

// IntersectionReceiverStanding runs party R of the intersection
// protocol exactly as IntersectionReceiver does, then subscribes to the
// sender's deltas instead of hanging up.  The sender must be a standing
// sender (IntersectionSenderStanding); against a plain sender the
// subscribe frame dies with the connection and Await fails.
func IntersectionReceiverStanding(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*Standing[*IntersectionResult], error) {
	if cfg.Shards > 1 {
		return nil, errStandingSharded
	}
	s := newSession(ctx, cfg, conn)
	st, err := s.intersectionReceiverRun(ctx, dedup(values))
	if err != nil {
		return nil, err
	}
	return subscribe[*IntersectionResult](ctx, s, st)
}

// EquijoinReceiverStanding runs party R of the equijoin protocol
// exactly as EquijoinReceiver does, then subscribes to the sender's
// deltas.  The sender must be EquijoinSenderStanding.
func EquijoinReceiverStanding(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*Standing[*JoinResult], error) {
	if cfg.Shards > 1 {
		return nil, errStandingSharded
	}
	s := newSession(ctx, cfg, conn)
	st, err := s.equijoinReceiverRun(ctx, dedup(values))
	if err != nil {
		return nil, err
	}
	return subscribe[*JoinResult](ctx, s, st)
}

// Result returns the answer as of the last applied update (the base
// run's result before the first Await).
func (q *Standing[R]) Result() R { return q.res }

// Version returns the sender data version the current result reflects.
func (q *Standing[R]) Version() uint64 { return q.version }

// Await blocks for the next pushed update, folds it into the retained
// state, acknowledges it, and returns the refreshed result.  It returns
// ErrSubscriptionEnded when the sender closes the subscription.  A
// malformed update — one that does not continue from the current
// version, carries non-member or unsorted elements, or that the
// retained state cannot absorb — aborts the session with
// ErrMalformedReply and tells the peer why.
func (q *Standing[R]) Await(ctx context.Context) (R, error) {
	var zero R
	if q.closed {
		return zero, ErrSubscriptionEnded
	}
	s := q.s
	m, err := s.recvAny(ctx, wire.KindSubUpdate, wire.KindSubEnd)
	if err != nil {
		return zero, err
	}
	if _, ended := m.(wire.SubEnd); ended {
		q.closed = true
		return zero, ErrSubscriptionEnded
	}
	u := m.(wire.SubUpdate)

	var start time.Time
	if s.lat != nil {
		start = time.Now()
	}
	if u.From != q.version || u.To <= u.From {
		return zero, s.abort(ctx, fmt.Errorf("%w: sub update spans %d..%d, want from %d",
			ErrMalformedReply, u.From, u.To, q.version))
	}
	if err := s.checkElems(ctx, u.Upserts, -1, "pushed upserts", true); err != nil {
		return zero, s.abort(ctx, err)
	}
	if err := s.checkElems(ctx, u.Deleted, -1, "pushed deletes", true); err != nil {
		return zero, s.abort(ctx, err)
	}
	if err := q.st.fold(ctx, s, u); err != nil {
		return zero, s.abort(ctx, err)
	}
	q.version = u.To

	if err := s.send(ctx, wire.SubAck{Version: u.To}); err != nil {
		return zero, err
	}
	if s.lat != nil {
		s.lat.Record(obs.LatDeltaApply, time.Since(start))
	}
	q.res = q.st.result(q.version)
	return q.res, nil
}

// Close unsubscribes: the sender sees the SubEnd (or the closed
// connection) and stops pushing.  Safe to call after the subscription
// already ended.
func (q *Standing[R]) Close(ctx context.Context) error {
	if q.closed {
		return nil
	}
	q.closed = true
	return q.s.send(ctx, wire.SubEnd{Code: wire.SubEndClient})
}

// fold lifts each pushed f_eS(h(v)) into the double-encrypted domain
// with the retained e_R — by commutativity f_eR(f_eS(h(v))) is exactly
// the Z_S representation — then updates membership by map surgery.
// Per update the receiver performs exactly (nIns+nDel) encryptions and
// no oracle hashes (costmodel.IntersectionUpdateOps).
func (st *intersectionState) fold(ctx context.Context, s *session, u wire.SubUpdate) error {
	if u.HasExt {
		return fmt.Errorf("%w: ext payloads in an intersection sub update", ErrMalformedReply)
	}
	ins, err := s.encryptSet(ctx, st.eR, u.Upserts)
	if err != nil {
		return err
	}
	del, err := s.encryptSet(ctx, st.eR, u.Deleted)
	if err != nil {
		return err
	}
	for _, z := range ins {
		k := st.ky.key(z)
		if _, dup := st.zSet[k]; dup {
			return fmt.Errorf("%w: pushed insert already present", ErrMalformedReply)
		}
		st.zSet[k] = struct{}{}
	}
	for _, z := range del {
		k := st.ky.key(z)
		if _, ok := st.zSet[k]; !ok {
			return fmt.Errorf("%w: pushed delete not present", ErrMalformedReply)
		}
		delete(st.zSet, k)
	}
	st.peerSize += len(ins) - len(del)
	return nil
}

// fold updates the retained match index.  The pushed elements are
// f_eS(h(v)) — the exact key domain of the index — so an update costs
// NO exponentiations at all: update the map, then re-decrypt only the
// affected positions with the retained κ values, one payload
// decryption per changed match (costmodel.JoinUpdateOps).
func (st *equijoinState) fold(ctx context.Context, s *session, u wire.SubUpdate) error {
	if !u.HasExt && len(u.Upserts) > 0 {
		return fmt.Errorf("%w: equijoin sub update lacks ext payloads", ErrMalformedReply)
	}
	inserted := 0
	for i, e := range u.Upserts {
		k := st.ky.key(e)
		if _, present := st.extByElem[k]; !present {
			inserted++
		}
		st.extByElem[k] = u.UpsertExt[i]
		if pos, mine := st.posByKey[k]; mine {
			ext, err := s.cfg.Cipher.Decrypt(st.kappas[pos], u.UpsertExt[i])
			if err != nil {
				return fmt.Errorf("core: decrypting pushed ext(v): %w", err)
			}
			if s.counters != nil {
				s.counters.AddPayloadDecrypts(1)
			}
			idx := st.order[pos]
			st.matched[idx] = &JoinMatch{Value: st.vR[idx], Ext: ext}
		}
	}
	for _, e := range u.Deleted {
		k := st.ky.key(e)
		if _, present := st.extByElem[k]; !present {
			return fmt.Errorf("%w: pushed delete not present", ErrMalformedReply)
		}
		delete(st.extByElem, k)
		if pos, mine := st.posByKey[k]; mine {
			st.matched[st.order[pos]] = nil
		}
	}
	st.peerSize += inserted - len(u.Deleted)
	return nil
}

// checkStandingSender rejects configurations a standing sender cannot
// serve.
func checkStandingSender(cfg Config) error {
	if cfg.Shards > 1 {
		return errStandingSharded
	}
	if cfg.DeltaSource == nil {
		return errors.New("core: standing sender requires a DeltaSource")
	}
	return nil
}

// IntersectionSenderStanding runs party S of the intersection protocol
// exactly as IntersectionSender does, then serves the peer's standing
// query: each time cfg.DeltaSource reports a new version, S re-encrypts
// only the churn under its pinned e_S (commutative.CachedSet.ApplyDelta)
// and pushes one SubUpdate.  cfg.DeltaSource must be non-nil and
// cfg.DataVersion must be the version it currently reports.
//
// The call returns when the receiver unsubscribes or hangs up (nil
// error — a receiver that never subscribes is the ordinary one-shot
// session, byte-identical on the wire to IntersectionSender), when the
// sender ends the subscription because a delta is unavailable or over
// the churn bound (nil error after a SubEnd push), or when ctx ends.
func IntersectionSenderStanding(ctx context.Context, cfg Config, conn transport.Conn, values [][]byte) (*SenderInfo, error) {
	if err := checkStandingSender(cfg); err != nil {
		return nil, err
	}
	s := newSession(ctx, cfg, conn)
	ph, err := s.intersectionSenderRun(ctx, dedup(values))
	if err != nil {
		return nil, err
	}
	info := &SenderInfo{ReceiverSetSize: ph.peerSize}
	cs, err := commutative.CachedSetFromSorted(ph.eS, ph.sortedYS, nil)
	if err != nil {
		return info, fmt.Errorf("core: retaining encrypted set: %w", err)
	}
	return info, s.serveSubscription(ctx, cs, nil, false)
}

// EquijoinSenderStanding runs party S of the equijoin protocol exactly
// as EquijoinSender does, then serves the peer's standing query with
// one SubUpdate per version step: upserted values ship as
// ⟨f_eS(h(v)), K(κ(v), ext(v))⟩ under the pinned keys, deletes as bare
// f_eS(h(v)).  cfg.DeltaSource must be non-nil.
func EquijoinSenderStanding(ctx context.Context, cfg Config, conn transport.Conn, records []JoinRecord) (*SenderInfo, error) {
	if err := checkStandingSender(cfg); err != nil {
		return nil, err
	}
	s := newSession(ctx, cfg, conn)
	vS, exts, err := dedupRecords(records)
	if err != nil {
		return nil, err
	}
	info, eS, ePrimeS, outElems, outExts, err := s.equijoinSenderRun(ctx, vS, exts)
	if err != nil {
		return nil, err
	}
	cs, err := commutative.CachedSetFromSorted(eS, outElems, outExts)
	if err != nil {
		return info, fmt.Errorf("core: retaining encrypted set: %w", err)
	}
	return info, s.serveSubscription(ctx, cs, ePrimeS, true)
}

// subRecvErr classifies an error from receiving a subscription-phase
// message: protocol violations and context ends surface; a transport
// close is the receiver hanging up, which ends the subscription cleanly.
func subRecvErr(ctx context.Context, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrPeerFailure),
		errors.Is(err, ErrMalformedReply),
		errors.Is(err, wire.ErrKindMismatch):
		return err
	case ctx.Err() != nil:
		return ctx.Err()
	}
	return nil
}

// serveSubscription is the sender-side push loop shared by the standing
// intersection and equijoin: wait for the Subscribe, then alternate
// between watching the DeltaSource and pushing one SubUpdate per version
// step, maintaining the retained encrypted set by ApplyDelta.  hasExt
// selects the equijoin shape (upserts carry payload ciphertexts under
// extKey); cs is the retained set as of cfg.DataVersion.
func (s *session) serveSubscription(ctx context.Context, cs *commutative.CachedSet, extKey *commutative.Key, hasExt bool) error {
	src := s.cfg.DeltaSource
	cur := s.cfg.DataVersion

	m, err := s.recvAny(ctx, wire.KindSubscribe)
	if err != nil {
		return subRecvErr(ctx, err)
	}
	if sub := m.(wire.Subscribe); sub.FromVersion != cur {
		// The peer subscribed from a version this session did not serve —
		// nothing incremental can be promised.
		_ = s.send(ctx, wire.SubEnd{Code: wire.SubEndServer})
		return nil
	}

	// One pump goroutine owns the connection's receive side for the rest
	// of the session, so a client SubEnd (or hang-up) is noticed even
	// while the loop is blocked watching the DeltaSource.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type recvRes struct {
		m   wire.Message
		err error
	}
	msgs := make(chan recvRes)
	go func() {
		for {
			m, err := s.recvAny(ctx, wire.KindSubAck, wire.KindSubEnd)
			select {
			case msgs <- recvRes{m, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for {
		// Block until the table moves or the peer speaks.
		wctx, wcancel := context.WithCancel(ctx)
		waitErr := make(chan error, 1)
		go func() { waitErr <- src.Wait(wctx, cur) }()
		select {
		case r := <-msgs:
			wcancel()
			<-waitErr
			if r.err != nil {
				return subRecvErr(ctx, r.err)
			}
			// SubEnd (client) — or a stray early SubAck, equally terminal.
			return nil
		case werr := <-waitErr:
			wcancel()
			if werr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return werr
			}
		}

		d, ok := src.DeltaSince(cur)
		if !ok || d.From != cur || d.To <= cur {
			_ = s.send(ctx, wire.SubEnd{Code: wire.SubEndServer})
			return nil
		}
		next, u, ok := s.pushDelta(ctx, cs, extKey, hasExt, d)
		if !ok {
			_ = s.send(ctx, wire.SubEnd{Code: wire.SubEndServer})
			return nil
		}

		var start time.Time
		if s.lat != nil {
			start = time.Now()
		}
		if err := s.send(ctx, u); err != nil {
			return err
		}
		if s.lat != nil {
			s.lat.Record(obs.LatDeltaPush, time.Since(start))
		}

		select {
		case r := <-msgs:
			if r.err != nil {
				return subRecvErr(ctx, r.err)
			}
			// lint:ignore wirekind r.m comes from recvAny(KindSubAck, KindSubEnd) — the pump already rejects every other kind with ErrKindMismatch, so only the two subscription replies can reach this switch
			switch am := r.m.(type) {
			case wire.SubAck:
				if am.Version != d.To {
					return s.abort(ctx, fmt.Errorf("%w: sub ack for version %d, want %d",
						ErrMalformedReply, am.Version, d.To))
				}
			case wire.SubEnd:
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}

		cs, cur = next, d.To
		if s.cfg.SetCache != nil {
			// Keep the peer's cache slot current so a later one-shot session
			// at this version starts warm.
			k := s.cfg.CacheKey
			k.Version = cur
			s.cfg.SetCache.Put(k, &CacheEntry{Set: cs, ExtKey: extKey})
		}
	}
}

// pushDelta turns one SetDelta into the upgraded retained set and the
// SubUpdate that ships it, paying exactly the sender half of
// costmodel.IntersectionUpdateOps / JoinUpdateOps: hash the churn, one
// encryption per churned value under the pinned e_S (plus, for the
// equijoin, one κ encryption and one payload encryption per upsert).
// ok is false when the delta exceeds the churn bound or conflicts with
// the retained set — the caller ends the subscription.
func (s *session) pushDelta(ctx context.Context, cs *commutative.CachedSet, extKey *commutative.Key, hasExt bool, d SetDelta) (*commutative.CachedSet, wire.SubUpdate, bool) {
	var insV, updV, insExt, updExt [][]byte
	for _, r := range d.Inserted {
		insV = append(insV, r.Value)
		insExt = append(insExt, r.Ext)
	}
	if hasExt {
		// Ext-only updates matter only when payloads ride along; the set
		// protocols skip them — membership is unchanged.
		for _, r := range d.Updated {
			updV = append(updV, r.Value)
			updExt = append(updExt, r.Ext)
		}
	}
	churn := len(insV) + len(updV) + len(d.Deleted)
	if s.cfg.DeltaChurnMax >= 0 && float64(churn) > s.cfg.DeltaChurnMax*float64(cs.Len()+len(insV)) {
		return nil, wire.SubUpdate{}, false
	}

	all := make([][]byte, 0, churn)
	all = append(all, insV...)
	all = append(all, updV...)
	all = append(all, d.Deleted...)
	hs, err := s.hashSet(all)
	if err != nil {
		return nil, wire.SubUpdate{}, false
	}
	insH := hs[:len(insV)]
	updH := hs[len(insV) : len(insV)+len(updV)]
	delH := hs[len(insV)+len(updV):]

	var insP, updP [][]byte
	if hasExt {
		insP, err = s.encryptExts(ctx, extKey, insH, insExt)
		if err == nil {
			updP, err = s.encryptExts(ctx, extKey, updH, updExt)
		}
		if err != nil {
			return nil, wire.SubUpdate{}, false
		}
	}
	next, cd, err := cs.ApplyDelta(ctx, s.cfg.Scheme, insH, updH, delH, insP, updP, s.cfg.Parallelism)
	if err != nil {
		return nil, wire.SubUpdate{}, false
	}

	u := wire.SubUpdate{From: d.From, To: d.To, HasExt: hasExt, Deleted: cd.Deleted}
	if hasExt {
		u.Upserts, u.UpsertExt = cd.Upserts()
	} else {
		u.Upserts = cd.Inserted
	}
	return next, u, true
}
