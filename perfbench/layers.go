package main

import (
	"fmt"
	"runtime"
	"time"
)

// Which end-to-end metric each layer metric should move, and where it
// should not (the prediction of no change):
//
//   - group.map.*, oracle.hash_us, ec25519.map_us: throughput and
//     latency_p50 on cold-intersect (1024 hashes per query, collision
//     pass included).  warm-join: the cached sender hashes only to
//     partition, and its receiver hashes use qr.
//   - group.apply.*, ec25519.decode_us, ec25519.scalarmult_us,
//     ec25519.encode_us: throughput and latency on cold-intersect (1024
//     C_e per query).  warm-join's C_e is qr1024 math/big, which ec25519
//     work does not touch.
//   - group.contains.*: latency_p50 on cold-intersect, where every
//     received element is validated (and on warm-join, where the qr
//     membership test is a large share).
//   - kenc.*: latency_p50 on warm-join.  No payloads elsewhere, and the
//     warm sender encrypts none inside the window.
//   - core.cache.*: latency_p50, heap_peak_mb and setup_s on warm-join.
//     Only warm-join has a cache.
//   - commutative.parallel_eff, transport.frames, party.session_ms,
//     party.dial_ms: throughput on warm-join (two shards over one mux,
//     chunked), against cold-intersect's single legacy-framed pipeline.
//   - transport.*_wait_ms, transport.*_block_ms, wire.*: latency_p90
//     on warm-join (mux credits, chunked frames) and wire_bytes_per_query
//     everywhere.  On cold-intersect C_e dwarfs framing.
//   - reldb.snapshot_us, core.*.self_ms: latency_p50 on warm-join, whose
//     server snapshots its bound table once per session.  cold-intersect
//     serves static values.
//   - obs.trace_overhead_pct moves nothing; it bounds how well the traced
//     split describes the untraced run.
//
// Per-op replay costs are multiplied by the window's call counts, so
// every ec25519.* and oracle.* value is time per query, like the rest.
// commutative.parallel_eff is busy time in group calls over GOMAXPROCS
// times the wall time any group call was running: above 1 means more
// calls were in flight than there are CPUs.

// perLayer splits the traced window across the repository's modules.
// Values are per query unless the name says otherwise; um is the untraced window of the same invocation, the
// baseline for the tracing overhead.
func perLayer(s spec, e *env, tm, um *measured, spans []span) ([]metric, error) {
	queries := tm.st.queries()
	per := func(x float64) float64 { return x / float64(max(queries, 1)) }
	var calls [numParties][numOps]int64
	var busy [numOps]int64
	var crypto []interval
	var cryptoBusy int64
	for _, sp := range spans {
		calls[sp.party][sp.op]++
		busy[sp.op] += sp.end - sp.start
		switch sp.op {
		case opMap, opApply, opContains:
			crypto = append(crypto, interval{sp.start, sp.end})
			cryptoBusy += sp.end - sp.start
		}
	}
	total := func(op uint8) int64 {
		var n int64
		for p := range calls {
			n += calls[p][op]
		}
		return n
	}
	busyMs := func(op uint8) float64 { return per(float64(busy[op]) / 1e6) }

	// Replays of the captured samples, outside the window.
	tr := e.tr
	var ec ecCosts
	if e.backend.Name() == "ec25519" {
		var err error
		if ec, err = replayEC(tr.uniform, tr.elems); err != nil {
			return nil, fmt.Errorf("ec25519 replay: %w", err)
		}
	}
	hash := replayOracle(e.backend, append(append([][]byte(nil), e.vS...), e.vR...))
	codec, err := replayWire(e.backend, tr.frames, s.shards > 1)
	if err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	us := func(d time.Duration, n int64) float64 { return per(float64(d.Nanoseconds()) * float64(n) / 1e3) }

	hitRatio := 0.0
	if look := tm.cache.Hits + tm.cache.Misses; look > 0 {
		hitRatio = float64(tm.cache.Hits) / float64(look)
	}
	var cacheBytes int64
	if e.setCache != nil {
		cacheBytes = e.setCache.MemoryBytes()
	}
	parEff := 0.0
	if u := length(union(crypto)); u > 0 {
		parEff = float64(cryptoBusy) / float64(int64(runtime.GOMAXPROCS(0))*u)
	}
	clientKids := []uint8{opDial, opSend, opRecv, opMap, opApply, opContains, opEncrypt, opDecrypt}
	serverKids := []uint8{opRead, opWrite, opMap, opApply, opContains, opEncrypt, opDecrypt}

	// Overhead: the throughput the traced half lost against the
	// untraced half.
	var overhead float64
	if u := float64(um.st.queries()) / um.wall.Seconds(); u > 0 {
		overhead = 100 * (u - float64(tm.st.queries())/tm.wall.Seconds()) / u
	}
	var snapshot time.Duration
	if e.binding != nil {
		snapshot = perCall(1, func(int) { e.binding.Snapshot() })
	}

	return []metric{
		{"group.map.calls", "count", per(float64(total(opMap))), queries},
		{"group.map.busy_ms", "ms", busyMs(opMap), queries},
		{"oracle.hash_us", "us", us(hash, total(opMap)), queries},
		{"ec25519.map_us", "us", us(ec.mapToPoint, total(opMap)), queries},
		{"group.apply.calls", "count", per(float64(total(opApply))), queries},
		{"group.apply.busy_ms", "ms", busyMs(opApply), queries},
		{"ec25519.decode_us", "us", us(ec.decode, total(opApply)+total(opContains)), queries},
		{"ec25519.scalarmult_us", "us", us(ec.scalarMult, total(opApply)), queries},
		{"ec25519.encode_us", "us", us(ec.encode, total(opApply)+total(opMap)), queries},
		{"group.contains.calls", "count", per(float64(total(opContains))), queries},
		{"group.contains.busy_ms", "ms", busyMs(opContains), queries},
		{"kenc.decrypt.calls", "count", per(float64(total(opDecrypt))), queries},
		{"kenc.decrypt.busy_ms", "ms", busyMs(opDecrypt), queries},
		{"kenc.encrypt.calls", "count", per(float64(total(opEncrypt))), queries},
		{"core.cache.hit_ratio", "ratio", hitRatio, int(tm.cache.Hits + tm.cache.Misses)},
		{"core.cache.bytes", "bytes", float64(cacheBytes), 1},
		{"commutative.parallel_eff", "ratio", parEff, len(crypto)},
		{"transport.frames", "count", per(float64(calls[client][opSend] + calls[client][opRecv])), queries},
		{"party.session_ms", "ms", busyMs(opSession), queries},
		{"party.dial_ms", "ms", busyMs(opDial), queries},
		{"transport.client.recv_wait_ms", "ms", busyMs(opRecv), queries},
		{"transport.server.recv_wait_ms", "ms", busyMs(opRead), queries},
		{"transport.client.send_block_ms", "ms", busyMs(opSend), queries},
		{"transport.server.send_block_ms", "ms", busyMs(opWrite), queries},
		{"wire.bytes_per_elem", "bytes", codec.bytesPerElem, codec.elems},
		{"wire.decode_ns_per_elem", "ns", codec.decodeNs, codec.elems},
		{"wire.encode_ns_per_elem", "ns", codec.encodeNs, codec.elems},
		{"reldb.snapshot_us", "us", us(snapshot, calls[server][opConn]), queries},
		{"core.client.self_ms", "ms", per(float64(selfTime(spans, client, opSession, clientKids...)) / 1e6), queries},
		{"core.server.self_ms", "ms", per(float64(selfTime(spans, server, opConn, serverKids...)) / 1e6), queries},
		{"obs.trace_overhead_pct", "%", overhead, queries},
	}, nil
}
