package core

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"minshare/internal/commutative"
	"minshare/internal/obs"
	"minshare/internal/wire"
)

// Streaming pipeline helpers.
//
// Nothing in the Section 3.3/4.3 protocols requires a party to finish
// encrypting its whole set before the first elements go on the wire,
// nor to hold a complete peer vector before re-encryption starts.
// These helpers exploit that: with Config.ChunkSize > 0, bulk vectors
// cross the wire as StreamBegin / StreamChunk… / StreamEnd, and
//
//   - streamEncryptSend exponentiates chunk i while chunk i−1 is in
//     flight;
//   - recvReencryptStream (and the equijoin-specific variants below)
//     validate and re-encrypt each received chunk while the next is
//     still arriving;
//   - duplex overlaps the two independent directions of the exchange
//     phase, hiding a whole vector transfer on a bandwidth-bound link.
//
// Every receive helper is mode-agnostic — it accepts the legacy
// one-shot vector or a stream, whatever the peer sent — so sessions
// with different ChunkSize settings interoperate, and ChunkSize = 0
// reproduces the pre-streaming transcript byte-for-byte.

// streaming reports whether this session sends bulk vectors chunked.
func (s *session) streaming() bool { return s.cfg.ChunkSize > 0 }

// chunkTimer feeds the chunk/pipeline latency histogram: each tick
// records the time one chunk spent in its pipeline stage (exponentiate
// and ship, or validate and re-encrypt) since the previous tick.  A nil
// timer — uninstrumented session — is inert and costs no clock reads.
type chunkTimer struct {
	lat  *obs.Latencies
	last time.Time
}

func (s *session) newChunkTimer() *chunkTimer {
	if s.lat == nil {
		return nil
	}
	return &chunkTimer{lat: s.lat, last: time.Now()}
}

func (t *chunkTimer) tick() {
	if t == nil {
		return
	}
	now := time.Now()
	t.lat.Record(obs.LatChunkPipeline, now.Sub(t.last))
	t.last = now
}

// sendElems ships an element vector that is already fully computed: one
// legacy frame, or Begin + ⌈n/ChunkSize⌉ chunks + End when streaming.
func (s *session) sendElems(ctx context.Context, elems []*big.Int) error {
	if !s.streaming() {
		return s.send(ctx, wire.Elements{Elems: elems})
	}
	if err := s.send(ctx, wire.StreamBegin{Inner: wire.KindElements, Count: uint32(len(elems))}); err != nil {
		return err
	}
	chunks := uint32(0)
	for off := 0; off < len(elems); off += s.cfg.ChunkSize {
		end := min(off+s.cfg.ChunkSize, len(elems))
		if err := s.send(ctx, wire.StreamChunk{Elems: elems[off:end]}); err != nil {
			return err
		}
		chunks++
	}
	return s.send(ctx, wire.StreamEnd{Chunks: chunks})
}

// sendExtPairs is sendElems for ⟨element, ciphertext⟩ vectors.
func (s *session) sendExtPairs(ctx context.Context, elems []*big.Int, exts [][]byte) error {
	if !s.streaming() {
		return s.send(ctx, wire.ExtPairs{Elem: elems, Ext: exts})
	}
	if err := s.send(ctx, wire.StreamBegin{Inner: wire.KindExtPairs, Count: uint32(len(elems))}); err != nil {
		return err
	}
	chunks := uint32(0)
	for off := 0; off < len(elems); off += s.cfg.ChunkSize {
		end := min(off+s.cfg.ChunkSize, len(elems))
		if err := s.send(ctx, wire.StreamExtChunk{Elem: elems[off:end], Ext: exts[off:end]}); err != nil {
			return err
		}
		chunks++
	}
	return s.send(ctx, wire.StreamEnd{Chunks: chunks})
}

// streamEncryptSend computes f_k(x) for every x in xs and ships the
// results in input order.  Legacy mode encrypts the whole vector, then
// sends one frame.  Streaming mode pipelines: each chunk goes on the
// wire as soon as it is exponentiated, while the worker pool is already
// on the next one.  Returns the full encrypted vector.
func (s *session) streamEncryptSend(ctx context.Context, k *commutative.Key, xs []*big.Int) ([]*big.Int, error) {
	sp := obs.StartSpan(ctx, "re-encrypt")
	defer sp.End()
	if !s.streaming() {
		out, err := s.encryptSet(ctx, k, xs)
		if err != nil {
			return nil, s.abort(ctx, err)
		}
		if err := s.send(ctx, wire.Elements{Elems: out}); err != nil {
			return nil, err
		}
		return out, nil
	}

	if err := s.send(ctx, wire.StreamBegin{Inner: wire.KindElements, Count: uint32(len(xs))}); err != nil {
		return nil, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := commutative.EncryptStream(cctx, s.cfg.Scheme, k, xs, s.cfg.ChunkSize, s.cfg.Parallelism)
	out := make([]*big.Int, 0, len(xs))
	chunks := uint32(0)
	ct := s.newChunkTimer()
	for c := range ch {
		if c.Err != nil {
			// An error chunk is terminal; the channel is already closed.
			return nil, s.abort(ctx, c.Err)
		}
		if err := s.send(ctx, wire.StreamChunk{Elems: c.Elems}); err != nil {
			cancel()
			for range ch {
			}
			return nil, err
		}
		ct.tick()
		out = append(out, c.Elems...)
		chunks++
	}
	if err := s.send(ctx, wire.StreamEnd{Chunks: chunks}); err != nil {
		return nil, err
	}
	return out, nil
}

// recvElemsFunc receives one element vector in either encoding — a
// legacy one-shot frame or a stream — validating cardinality, group
// membership, and (when requireSorted) order as the data arrives.
// Sortedness is checked across chunk boundaries.  onChunk, when
// non-nil, observes each validated non-empty run before the next frame
// is read; the re-encryption pipelines hang their workers off it.
// Validation failures abort the session (the peer gets a wire.ErrorMsg).
func (s *session) recvElemsFunc(ctx context.Context, wantLen int, what string, requireSorted bool, onChunk func([]*big.Int) error) ([]*big.Int, error) {
	m, err := s.recvAny(ctx, wire.KindElements, wire.KindStreamBegin)
	if err != nil {
		return nil, err
	}
	if v, ok := m.(wire.Elements); ok {
		if err := s.checkElems(ctx, v.Elems, wantLen, what, requireSorted); err != nil {
			return nil, s.abort(ctx, err)
		}
		if onChunk != nil && len(v.Elems) > 0 {
			if err := onChunk(v.Elems); err != nil {
				return nil, err
			}
		}
		return v.Elems, nil
	}

	begin := m.(wire.StreamBegin)
	if begin.Inner != wire.KindElements {
		return nil, s.abort(ctx, fmt.Errorf("%w: %s streamed as %v", ErrMalformedReply, what, begin.Inner))
	}
	count := int(begin.Count)
	if wantLen >= 0 && count != wantLen {
		return nil, s.abort(ctx, fmt.Errorf("%w: %s has %d elements, want %d", ErrMalformedReply, what, count, wantLen))
	}
	// The slice grows as chunks arrive: count is only the peer's claim,
	// so nothing is allocated for entries it has not yet sent.
	var elems []*big.Int
	var prev *big.Int
	chunks := uint32(0)
	for {
		m, err := s.recvAny(ctx, wire.KindStreamChunk, wire.KindStreamEnd)
		if err != nil {
			return nil, err
		}
		if end, ok := m.(wire.StreamEnd); ok {
			if end.Chunks != chunks || len(elems) != count {
				return nil, s.abort(ctx, fmt.Errorf("%w: %s stream ended after %d/%d elements", ErrMalformedReply, what, len(elems), count))
			}
			return elems, nil
		}
		chunk := m.(wire.StreamChunk).Elems
		if len(chunk) == 0 {
			return nil, s.abort(ctx, fmt.Errorf("%w: empty %s stream chunk", ErrMalformedReply, what))
		}
		if len(elems)+len(chunk) > count {
			return nil, s.abort(ctx, fmt.Errorf("%w: %s stream overflows its declared %d elements", ErrMalformedReply, what, count))
		}
		if err := s.checkChunk(ctx, chunk, prev, len(elems), what, requireSorted); err != nil {
			return nil, s.abort(ctx, err)
		}
		if onChunk != nil {
			if err := onChunk(chunk); err != nil {
				return nil, err
			}
		}
		elems = append(elems, chunk...)
		prev = chunk[len(chunk)-1]
		chunks++
	}
}

// recvElems receives and validates one element vector, either encoding.
func (s *session) recvElems(ctx context.Context, wantLen int, what string, requireSorted bool) ([]*big.Int, error) {
	return s.recvElemsFunc(ctx, wantLen, what, requireSorted, nil)
}

// recvReencryptStream receives an element vector and re-encrypts it
// under k, overlapping each chunk's exponentiation with the receipt of
// the next.  Returns both the received vector and its re-encryption,
// both in wire order.
func (s *session) recvReencryptStream(ctx context.Context, k *commutative.Key, wantLen int, what string, requireSorted bool) (received, reenc []*big.Int, err error) {
	jobs := make(chan []*big.Int, 1)
	done := make(chan struct{})
	var (
		out    []*big.Int
		encErr error
	)
	go func() {
		defer close(done)
		sp := obs.StartSpan(ctx, "re-encrypt")
		defer sp.End()
		ct := s.newChunkTimer()
		for chunk := range jobs {
			if encErr != nil {
				continue // drain
			}
			// len(out) is the chunk's base offset in the received vector,
			// so element errors name the global index.
			ys, err := commutative.EncryptAllAt(ctx, s.cfg.Scheme, k, chunk, s.cfg.Parallelism, len(out))
			if err != nil {
				encErr = err
				continue
			}
			out = append(out, ys...)
			ct.tick()
		}
	}()
	received, rerr := s.recvElemsFunc(ctx, wantLen, what, requireSorted, func(chunk []*big.Int) error {
		select {
		case jobs <- chunk:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("core: re-encrypt pipeline: %w", ctx.Err())
		}
	})
	close(jobs)
	<-done
	if rerr != nil {
		return nil, nil, rerr
	}
	if encErr != nil {
		return nil, nil, s.abort(ctx, encErr)
	}
	return received, out, nil
}

// recvEncryptPairsSend is the equijoin sender's step 3–4 pipeline: it
// receives Y_R (sorted) and replies with the aligned ⟨f_kA(y), f_kB(y)⟩
// pairs.  In streaming mode each received chunk is double-encrypted and
// its pair chunk sent while the next chunk of Y_R is still in flight,
// the reply mirroring the incoming chunk boundaries.  Returns Y_R.
func (s *session) recvEncryptPairsSend(ctx context.Context, kA, kB *commutative.Key, wantLen int, what string) ([]*big.Int, error) {
	if !s.streaming() {
		yR, err := s.recvElems(ctx, wantLen, what, true)
		if err != nil {
			return nil, err
		}
		sp := obs.StartSpan(ctx, "re-encrypt")
		defer sp.End()
		withA, err := s.encryptSet(ctx, kA, yR)
		if err != nil {
			return nil, s.abort(ctx, err)
		}
		withB, err := s.encryptSet(ctx, kB, yR)
		if err != nil {
			return nil, s.abort(ctx, err)
		}
		if err := s.send(ctx, wire.Pairs{A: withA, B: withB}); err != nil {
			return nil, err
		}
		return yR, nil
	}

	if err := s.send(ctx, wire.StreamBegin{Inner: wire.KindPairs, Count: uint32(wantLen)}); err != nil {
		return nil, err
	}
	jobs := make(chan []*big.Int, 1)
	done := make(chan struct{})
	var (
		chunks          uint32
		encErr, sendErr error
	)
	go func() {
		defer close(done)
		sp := obs.StartSpan(ctx, "re-encrypt")
		defer sp.End()
		ct := s.newChunkTimer()
		off := 0 // base offset of the current chunk within Y_R
		for chunk := range jobs {
			base := off
			off += len(chunk)
			if encErr != nil || sendErr != nil {
				continue // drain
			}
			withA, err := commutative.EncryptAllAt(ctx, s.cfg.Scheme, kA, chunk, s.cfg.Parallelism, base)
			if err != nil {
				encErr = err
				continue
			}
			withB, err := commutative.EncryptAllAt(ctx, s.cfg.Scheme, kB, chunk, s.cfg.Parallelism, base)
			if err != nil {
				encErr = err
				continue
			}
			// Pairs stream interleaved: a0 b0 a1 b1 …
			inter := make([]*big.Int, 0, 2*len(chunk))
			for i := range chunk {
				inter = append(inter, withA[i], withB[i])
			}
			if err := s.send(ctx, wire.StreamChunk{Elems: inter}); err != nil {
				sendErr = err
				continue
			}
			ct.tick()
			chunks++
		}
	}()
	yR, rerr := s.recvElemsFunc(ctx, wantLen, what, true, func(chunk []*big.Int) error {
		select {
		case jobs <- chunk:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("core: pair pipeline: %w", ctx.Err())
		}
	})
	close(jobs)
	<-done
	if rerr != nil {
		return nil, rerr
	}
	if encErr != nil {
		return nil, s.abort(ctx, encErr)
	}
	if sendErr != nil {
		return nil, sendErr
	}
	if err := s.send(ctx, wire.StreamEnd{Chunks: chunks}); err != nil {
		return nil, err
	}
	return yR, nil
}

// recvPairsDecrypt is the equijoin receiver's step 4+6 pipeline: it
// receives the aligned ⟨f_eS(y), f_e'S(y)⟩ pairs and strips R's own
// encryption layer from both components, chunk by chunk, overlapped
// with the receive.  Returns the two decrypted component vectors.
func (s *session) recvPairsDecrypt(ctx context.Context, k *commutative.Key, wantLen int, whatA, whatB string) (compA, compB []*big.Int, err error) {
	m, err := s.recvAny(ctx, wire.KindPairs, wire.KindStreamBegin)
	if err != nil {
		return nil, nil, err
	}
	if v, ok := m.(wire.Pairs); ok {
		if err := s.checkElems(ctx, v.A, wantLen, whatA, false); err != nil {
			return nil, nil, s.abort(ctx, err)
		}
		if err := s.checkElems(ctx, v.B, wantLen, whatB, false); err != nil {
			return nil, nil, s.abort(ctx, err)
		}
		sp := obs.StartSpan(ctx, "re-encrypt")
		defer sp.End()
		a, err := s.decryptSet(ctx, k, v.A)
		if err != nil {
			return nil, nil, s.abort(ctx, err)
		}
		b, err := s.decryptSet(ctx, k, v.B)
		if err != nil {
			return nil, nil, s.abort(ctx, err)
		}
		return a, b, nil
	}

	begin := m.(wire.StreamBegin)
	if begin.Inner != wire.KindPairs {
		return nil, nil, s.abort(ctx, fmt.Errorf("%w: pair reply streamed as %v", ErrMalformedReply, begin.Inner))
	}
	count := int(begin.Count)
	if wantLen >= 0 && count != wantLen {
		return nil, nil, s.abort(ctx, fmt.Errorf("%w: %s has %d elements, want %d", ErrMalformedReply, whatA, count, wantLen))
	}

	type pairChunk struct{ a, b []*big.Int }
	jobs := make(chan pairChunk, 1)
	done := make(chan struct{})
	var (
		outA, outB []*big.Int
		decErr     error
	)
	go func() {
		defer close(done)
		sp := obs.StartSpan(ctx, "re-encrypt")
		defer sp.End()
		ct := s.newChunkTimer()
		for pc := range jobs {
			if decErr != nil {
				continue // drain
			}
			a, err := commutative.DecryptAllAt(ctx, s.cfg.Scheme, k, pc.a, s.cfg.Parallelism, len(outA))
			if err != nil {
				decErr = err
				continue
			}
			b, err := commutative.DecryptAllAt(ctx, s.cfg.Scheme, k, pc.b, s.cfg.Parallelism, len(outB))
			if err != nil {
				decErr = err
				continue
			}
			outA = append(outA, a...)
			outB = append(outB, b...)
			ct.tick()
		}
	}()

	var rerr error
	got := 0
	chunks := uint32(0)
recvLoop:
	for {
		m, err := s.recvAny(ctx, wire.KindStreamChunk, wire.KindStreamEnd)
		if err != nil {
			rerr = err
			break
		}
		if end, ok := m.(wire.StreamEnd); ok {
			if end.Chunks != chunks || got != count {
				rerr = s.abort(ctx, fmt.Errorf("%w: pair stream ended after %d/%d entries", ErrMalformedReply, got, count))
			}
			break
		}
		elems := m.(wire.StreamChunk).Elems
		if len(elems) == 0 || len(elems)%2 != 0 {
			rerr = s.abort(ctx, fmt.Errorf("%w: pair stream chunk of %d elements", ErrMalformedReply, len(elems)))
			break
		}
		n := len(elems) / 2
		if got+n > count {
			rerr = s.abort(ctx, fmt.Errorf("%w: pair stream overflows its declared %d entries", ErrMalformedReply, count))
			break
		}
		ca := make([]*big.Int, n)
		cb := make([]*big.Int, n)
		for i := 0; i < n; i++ {
			ca[i], cb[i] = elems[2*i], elems[2*i+1]
		}
		if err := s.checkChunk(ctx, ca, nil, got, whatA, false); err != nil {
			rerr = s.abort(ctx, err)
			break
		}
		if err := s.checkChunk(ctx, cb, nil, got, whatB, false); err != nil {
			rerr = s.abort(ctx, err)
			break
		}
		select {
		case jobs <- pairChunk{a: ca, b: cb}:
		case <-ctx.Done():
			rerr = fmt.Errorf("core: pair pipeline: %w", ctx.Err())
			break recvLoop
		}
		got += n
		chunks++
	}
	close(jobs)
	<-done
	if rerr != nil {
		return nil, nil, rerr
	}
	if decErr != nil {
		return nil, nil, s.abort(ctx, decErr)
	}
	return outA, outB, nil
}

// recvExtPairs receives one ⟨element, ciphertext⟩ vector, either
// encoding, with the elements required sorted.
func (s *session) recvExtPairs(ctx context.Context, wantLen int, what string) ([]*big.Int, [][]byte, error) {
	m, err := s.recvAny(ctx, wire.KindExtPairs, wire.KindStreamBegin)
	if err != nil {
		return nil, nil, err
	}
	if v, ok := m.(wire.ExtPairs); ok {
		if err := s.checkElems(ctx, v.Elem, wantLen, what, true); err != nil {
			return nil, nil, s.abort(ctx, err)
		}
		return v.Elem, v.Ext, nil
	}

	begin := m.(wire.StreamBegin)
	if begin.Inner != wire.KindExtPairs {
		return nil, nil, s.abort(ctx, fmt.Errorf("%w: %s streamed as %v", ErrMalformedReply, what, begin.Inner))
	}
	count := int(begin.Count)
	if wantLen >= 0 && count != wantLen {
		return nil, nil, s.abort(ctx, fmt.Errorf("%w: %s has %d elements, want %d", ErrMalformedReply, what, count, wantLen))
	}
	// Grown as chunks arrive, like recvElemsFunc's vector.
	var (
		elems []*big.Int
		exts  [][]byte
	)
	var prev *big.Int
	chunks := uint32(0)
	for {
		m, err := s.recvAny(ctx, wire.KindStreamExtChunk, wire.KindStreamEnd)
		if err != nil {
			return nil, nil, err
		}
		if end, ok := m.(wire.StreamEnd); ok {
			if end.Chunks != chunks || len(elems) != count {
				return nil, nil, s.abort(ctx, fmt.Errorf("%w: %s stream ended after %d/%d elements", ErrMalformedReply, what, len(elems), count))
			}
			return elems, exts, nil
		}
		chunk := m.(wire.StreamExtChunk)
		if len(chunk.Elem) == 0 {
			return nil, nil, s.abort(ctx, fmt.Errorf("%w: empty %s stream chunk", ErrMalformedReply, what))
		}
		if len(elems)+len(chunk.Elem) > count {
			return nil, nil, s.abort(ctx, fmt.Errorf("%w: %s stream overflows its declared %d elements", ErrMalformedReply, what, count))
		}
		if err := s.checkChunk(ctx, chunk.Elem, prev, len(elems), what, true); err != nil {
			return nil, nil, s.abort(ctx, err)
		}
		elems = append(elems, chunk.Elem...)
		exts = append(exts, chunk.Ext...)
		prev = elems[len(elems)-1]
		chunks++
	}
}

// duplex runs the send half and the receive half of an exchange phase.
// Legacy mode runs them sequentially in protocol order (recvFirst picks
// which goes first), reproducing the lock-step transcript.  Streaming
// mode runs both concurrently: the vectors are independent, each
// direction's frame order is unchanged, and the link's two directions
// overlap — hiding one whole vector transfer on a bandwidth-bound link.
// The send half gets a cancelable context so a receive failure (peer
// gone, pipe full) cannot strand it.
func (s *session) duplex(ctx context.Context, recvFirst bool, send, recv func(context.Context) error) error {
	if !s.streaming() {
		if recvFirst {
			if err := recv(ctx); err != nil {
				return err
			}
			return send(ctx)
		}
		if err := send(ctx); err != nil {
			return err
		}
		return recv(ctx)
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- send(sctx) }()
	rerr := recv(ctx)
	if rerr != nil {
		cancel()
	}
	serr := <-errc
	if rerr != nil {
		return rerr
	}
	return serr
}
