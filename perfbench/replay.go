package main

import (
	"crypto/rand"
	"math/big"
	"time"

	"minshare/internal/ec25519"
	"minshare/internal/group"
	"minshare/internal/oracle"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// After a traced window closes, the samples the wrappers captured are
// replayed through the packages' public functions, one kind of call at
// a time, to split a layer's busy time into its parts: the ec25519
// steps inside one group.Apply, the oracle's hashing, and the codec's
// per-element cost.  Each replay loops over its sample until it has run
// for replayFor, so sub-microsecond calls are timed in bulk.

const replayFor = 50 * time.Millisecond

// perCall times f over the n-element sample and returns the mean
// duration of one call.
func perCall(n int, f func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < replayFor {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls)
}

// ecCosts is the per-call cost of each ec25519 step.
type ecCosts struct {
	mapToPoint, decode, scalarMult, encode time.Duration
}

// replayEC times MapToPoint over the captured hash-to-group inputs and
// Decode, ScalarMult and Encode over the captured Apply inputs, with
// fresh scalars drawn the way the backend draws keys.
func replayEC(uniform [][]byte, elems []*big.Int) (ecCosts, error) {
	var c ecCosts
	c.mapToPoint = perCall(len(uniform), func(i int) { ec25519.MapToPoint(uniform[i]) })
	encs := make([][]byte, len(elems))
	points := make([]*ec25519.Point, len(elems))
	for i, x := range elems {
		encs[i] = make([]byte, ec25519.EncodedLen)
		x.FillBytes(encs[i])
		p, err := ec25519.Decode(encs[i])
		if err != nil {
			return c, err
		}
		points[i] = p
	}
	c.decode = perCall(len(encs), func(i int) { _, _ = ec25519.Decode(encs[i]) })
	var scalar [32]byte
	e, err := group.EC25519().RandomScalar(rand.Reader)
	if err != nil {
		return c, err
	}
	e.Big().FillBytes(scalar[:])
	c.scalarMult = perCall(len(points), func(i int) { points[i].ScalarMult(&scalar) })
	c.encode = perCall(len(points), func(i int) { points[i].Encode(nil) })
	return c, nil
}

// replayOracle times the full oracle hash h(v) — XOF expansion plus
// MapToElement — over the workload's own input values.
func replayOracle(b group.Backend, values [][]byte) time.Duration {
	o := oracle.New(b)
	return perCall(len(values), func(i int) { o.Hash(values[i]) })
}

// codecCosts is the codec's cost per element over the captured frames.
type codecCosts struct {
	decodeNs, encodeNs float64 // per element
	bytesPerElem       float64 // on-wire bytes (frame headers, mux tags included) per element
	elems              int
}

// replayWire decodes and re-encodes the captured client frames.  In a
// sharded session the first frame each way is the outer handshake and
// every later frame carries the transport.Mux shard tag (control frames
// carry no protocol message), so the tag is stripped before decoding.
func replayWire(b group.Backend, frames []capturedFrame, sharded bool) (codecCosts, error) {
	codec := wire.NewCodec(b)
	var payloads [][]byte
	var msgs []wire.Message
	var c codecCosts
	var wireBytes int
	type stream struct {
		conn int32
		sent bool
	}
	seen := map[stream]int{}
	for _, f := range frames {
		wireBytes += len(f.data) + transport.FrameOverhead
		data := f.data
		seen[stream{f.conn, f.sent}]++
		if sharded && seen[stream{f.conn, f.sent}] > 1 {
			if len(data) > 0 && data[0] == 0xFF {
				continue // mux credit frame
			}
			data = data[1:]
		}
		m, err := codec.Decode(data)
		if err != nil {
			return c, err
		}
		payloads = append(payloads, data)
		msgs = append(msgs, m)
		c.elems += elemCount(m)
	}
	if c.elems == 0 {
		return c, nil
	}
	dec := perCall(len(payloads), func(i int) { _, _ = codec.Decode(payloads[i]) })
	encd := perCall(len(msgs), func(i int) { _, _ = codec.Encode(msgs[i]) })
	perFrameElems := float64(c.elems) / float64(len(msgs))
	c.decodeNs = float64(dec.Nanoseconds()) / perFrameElems
	c.encodeNs = float64(encd.Nanoseconds()) / perFrameElems
	c.bytesPerElem = float64(wireBytes) / float64(c.elems)
	return c, nil
}

// elemCount is the number of group elements a message carries.
func elemCount(m wire.Message) int {
	switch v := m.(type) {
	case wire.Elements:
		return len(v.Elems)
	case wire.Pairs:
		return len(v.A) + len(v.B)
	case wire.Triples:
		return len(v.A) + len(v.B) + len(v.C)
	case wire.ExtPairs:
		return len(v.Elem)
	case wire.StreamChunk:
		return len(v.Elems)
	case wire.StreamExtChunk:
		return len(v.Elem)
	case wire.SubUpdate:
		return len(v.Upserts) + len(v.Deleted)
	case wire.Header, wire.ErrorMsg, wire.StreamBegin, wire.StreamEnd,
		wire.Subscribe, wire.SubAck, wire.SubEnd:
		return 0
	}
	return 0
}
