package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"minshare/internal/costmodel"
	"minshare/internal/obs"
	"minshare/internal/oracle"
	"minshare/internal/wire"
)

// census is what the traced window counted, over the whole window.
type census struct {
	apply, mapping, encrypt, decrypt int64
	socketBytes                      int64
	obs                              obs.CounterSnapshot // registry delta, both parties
	cache                            obs.CacheSnapshot   // cache census delta
}

// checkCensus compares the traced window's counts with the certified
// closed forms of package costmodel for the workload's mode.  An exact
// match shows that the wrappers saw every call and that the workload
// ran in the mode it claims (cold, or cache-warm and sharded); any
// mismatch fails the traced run.
func checkCensus(s spec, e *env, st *windowStats, c census) []error {
	var errs []error
	eq := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Errorf("census: %s = %d, closed form gives %d", what, got, want))
		}
	}
	q := int64(st.queries())
	elemLen := e.backend.ElementLen()

	// The obs registry counts the same primitives from inside the
	// protocol code; it must agree with the wrappers outside it.
	eq("obs C_e vs group.apply calls", c.obs.ModExps(), c.apply)
	eq("obs oracle hashes vs group.map calls", c.obs.OracleHashes, c.mapping)
	eq("obs payload decrypts vs kenc.decrypt calls", c.obs.PayloadDecrypts, c.decrypt)
	eq("obs payload encrypts vs kenc.encrypt calls", c.obs.PayloadEncrypts, c.encrypt)

	// Every value a sub-protocol hashes is hashed once more by the
	// §3.2.2 collision check, an implementation pass outside the Section
	// 6.1 census; core's own certification tests count it the same way.
	switch s.name {
	case "cold-intersect":
		ops := costmodel.IntersectionOps(s.nS, s.nR)
		w := costmodel.IntersectionWireCost(s.nS, s.nR, elemLen).WithHeaderLen(wire.HeaderLen(e.backend.Code()))
		eq("group.apply calls", c.apply, q*ops.Ce)
		eq("group.map calls", c.mapping, q*2*ops.Ch)
		eq("kenc calls", c.encrypt+c.decrypt, 0)
		eq("socket bytes", c.socketBytes, q*w.TotalWireBytes())
		eq("obs wire bytes", c.obs.WireBytesSent, q*w.TotalWireBytes())
	case "warm-join":
		common := map[string]bool{}
		for _, v := range e.vS {
			common[string(v)] = true
		}
		var inter [][]byte
		for _, v := range e.vR {
			if common[string(v)] {
				inter = append(inter, v)
			}
		}
		shardS := shardSizes(e, e.vS, s.shards)
		shardR := shardSizes(e, e.vR, s.shards)
		shardI := shardSizes(e, inter, s.shards)
		var ops costmodel.OpCounts
		for i := range shardS {
			o := costmodel.JoinOpsWarm(shardS[i], shardR[i], shardI[i])
			ops.Ce += o.Ce
			ops.Ch += o.Ch
			ops.CK += o.CK
		}
		// The warm sender hashes nothing inside its shards, so the
		// collision pass covers V_R alone; both coordinators also hash
		// every value to route it to its shard (the partition surcharge).
		hashes := 2*ops.Ch + int64(len(e.vS)+len(e.vR))
		w := costmodel.ShardedJoinWireCost(shardS, shardR, elemLen, e.extLen, s.chunkSize)
		eq("group.apply calls", c.apply, q*ops.Ce)
		eq("group.map calls", c.mapping, q*hashes)
		eq("kenc.decrypt calls", c.decrypt, q*ops.CK)
		eq("kenc.encrypt calls", c.encrypt, 0)
		eq("obs wire bytes", c.obs.WireBytesSent, q*w.TotalWireBytes())
		eq("cache hits", c.cache.Hits, q*int64(s.shards))
		eq("cache misses", c.cache.Misses, 0)
	}
	return errs
}

// shardSizes routes values to shards the way the protocol's
// partitioner does — SHA-256 of the fixed-width h(v) encoding, first
// eight bytes big-endian, modulo k — and returns the bucket sizes.
func shardSizes(e *env, values [][]byte, k int) []int {
	o := oracle.New(e.backend)
	sizes := make([]int, k)
	buf := make([]byte, e.backend.ElementLen())
	for _, v := range values {
		o.Hash(v).FillBytes(buf)
		sum := sha256.Sum256(buf)
		sizes[binary.BigEndian.Uint64(sum[:8])%uint64(k)]++
	}
	return sizes
}
