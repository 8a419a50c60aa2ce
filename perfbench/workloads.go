package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/kenc"
	"minshare/internal/obs"
	"minshare/internal/party"
	"minshare/internal/reldb"
	"minshare/internal/transport"
)

// queryTimeout bounds one query; a query that takes longer counts as
// failed.
const queryTimeout = 30 * time.Second

// payloadLen fixes the width of every row's payload column so each
// ext(v) ciphertext has the same length, as the cost model's k' assumes.
const payloadLen = 24

// spec describes one workload: its inputs' shape and the deployment
// configuration both parties run.  Everything random derives from the
// seed passed to build.
type spec struct {
	name      string
	why       string
	backend   string
	protocol  string
	nS, nR    int // |V_S| (table rows when bound) and |V_R|
	common    int // |V_S ∩ V_R| at set-up
	shards    int
	chunkSize int
	cache     bool
	bound     bool // server serves a reldb table through party.BindTable
	build     func(ctx context.Context, s spec, e *env, seed uint64) (*fixture, error)
}

var workloads = []spec{
	{
		name:    "cold-intersect",
		why:     "default one-shot ec25519 intersection, 256x256, no cache, legacy framing: every value pays hash-to-curve and two C_e, so oracle, group and ec25519 dominate",
		backend: "ec25519", protocol: "intersection",
		nS: 256, nR: 256, common: 128,
		build: buildCold,
	},
	{
		name:    "warm-join",
		why:     "qr1024 equijoin against a cache-warm sender over a bound 512-row table, 2 shards over one mux, chunked: cache, kenc, transport.Mux and math/big C_e; no ec25519",
		backend: "qr1024", protocol: "equijoin",
		nS: 512, nR: 32, common: 16,
		shards: 2, chunkSize: 64, cache: true, bound: true,
		build: buildWarm,
	},
}

func lookupWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// windowStats is what one timed window observed.
type windowStats struct {
	attempted, failed int
	firstErr          error
	latencies         []time.Duration // one per correct query
}

// queries is the number of correct queries.
func (st *windowStats) queries() int { return len(st.latencies) }

func (st *windowStats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// env carries what a fixture needs from the driver: the tracer and obs
// registry of a traced run (both nil otherwise), the cache census, and
// the socket byte counter.
type env struct {
	tr    *tracer
	reg   *obs.Registry
	bytes atomic.Int64

	// Set by the workload's build: its backend, the inputs the parties
	// received, the served table binding and cache (if any) and the
	// ext(v) length.
	backend  group.Backend
	vS, vR   [][]byte
	binding  *party.TableBinding
	cache    obs.CacheStats
	setCache *core.SenderSetCache
	extLen   int
}

// config is one party's protocol configuration.  In a traced run the
// group backend and payload cipher are wrapped so every call into them
// records a span.
func (e *env) config(b group.Backend, p uint8, s spec) core.Config {
	cfg := core.Config{Group: b, ChunkSize: s.chunkSize}
	if e.tr != nil {
		cfg.Group = &tracedGroup{Backend: b, t: e.tr, party: p}
		cfg.Cipher = &tracedCipher{Cipher: kenc.NewHybrid(b), t: e.tr, party: p}
	}
	return cfg
}

// served is a party.Server running Serve on a loopback listener.
type served struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func (e *env) serve(srv *party.Server) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	var l net.Listener = ln
	if e.tr != nil {
		l = &tracedListener{Listener: ln, t: e.tr}
	}
	srv.Obs = e.reg
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx, l) }()
	return s, nil
}

func (s *served) stop() error {
	s.cancel()
	if err := <-s.done; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// client returns a party.Client whose connections are counted at the
// socket and, in a traced run, timed at the transport.Conn boundary.
func (e *env) client(cfg core.Config, addr string) *party.Client {
	c := party.NewClientConnFunc(cfg, func(ctx context.Context) (transport.Conn, error) {
		var start int64
		if e.tr != nil {
			start = e.tr.now()
		}
		nc, err := dialCounted(ctx, addr, &e.bytes)
		if err != nil {
			return nil, err
		}
		conn := transport.NewTCP(nc)
		if e.tr != nil {
			e.tr.add(client, opDial, start)
			conn = &tracedConn{Conn: conn, t: e.tr, id: e.tr.conns.Add(1)}
		}
		return conn, nil
	})
	c.Obs = e.reg
	return c
}

// policy admits every benchmark query: no per-peer budget, no set-size
// limits, and exactly the workload's shard count.
func policy(s spec) party.Policy {
	return party.Policy{MaxQueriesPerPeer: 0, MaxPeerSetSize: 0, MaxShards: max(s.shards, 1)}
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

// keygen draws distinct fixed-width keys from a seeded stream.
type keygen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newKeygen(seed, stream uint64) *keygen {
	return &keygen{rng: rand.New(rand.NewPCG(seed, stream)), seen: map[string]bool{}}
}

func (k *keygen) next() string {
	for {
		s := fmt.Sprintf("k%015x", k.rng.Uint64()>>4)
		if !k.seen[s] {
			k.seen[s] = true
			return s
		}
	}
}

func (k *keygen) payload() string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, payloadLen)
	for i := range b {
		b[i] = alphabet[k.rng.IntN(len(alphabet))]
	}
	return string(b)
}

// setInputs draws V_S and V_R with the spec's overlap: V_R takes its
// first `common` keys from V_S and the rest fresh, then is shuffled.
func setInputs(k *keygen, s spec) (vS, vR []string) {
	for i := 0; i < s.nS; i++ {
		vS = append(vS, k.next())
	}
	vR = append(vR, vS[:s.common]...)
	for len(vR) < s.nR {
		vR = append(vR, k.next())
	}
	k.rng.Shuffle(len(vR), func(i, j int) { vR[i], vR[j] = vR[j], vR[i] })
	return vS, vR
}

// enc is the served form of a key: the reldb value encoding a bound
// table hands the protocols.
func enc(key string) []byte { return reldb.String(key).Encode() }

func encAll(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = enc(k)
	}
	return out
}

var tableSchema = reldb.MustSchema(
	reldb.Column{Name: "key", Type: reldb.TypeString},
	reldb.Column{Name: "payload", Type: reldb.TypeString},
)

// ---------------------------------------------------------------------
// Closed-loop query workloads
// ---------------------------------------------------------------------

// fixture is one workload after set-up: a running server and a client
// whose query checks its answer against the ground truth.
type fixture struct {
	e     *env
	srv   *served
	query func(ctx context.Context) error
}

// window runs one query after another from the single client for about
// d and reports what happened.
func (f *fixture) window(ctx context.Context, d time.Duration) *windowStats {
	st := &windowStats{}
	start := time.Now()
	for q := 0; time.Since(start) < d; q++ {
		if f.e.tr != nil {
			f.e.tr.query.Store(int32(q))
		}
		t0 := time.Now()
		qctx, cancel := context.WithTimeout(ctx, queryTimeout)
		err := f.query(qctx)
		cancel()
		st.attempted++
		if err != nil {
			st.fail(err)
			continue
		}
		st.latencies = append(st.latencies, time.Since(t0))
	}
	return st
}

// close stops the server and waits for it.
func (f *fixture) close() error { return f.srv.stop() }

// timedSession records the client call as a party.session span.
func (e *env) timedSession(f func() error) error {
	if e.tr == nil {
		return f()
	}
	start := e.tr.now()
	err := f()
	e.tr.add(client, opSession, start)
	return err
}

func buildCold(ctx context.Context, s spec, e *env, seed uint64) (*fixture, error) {
	b, err := group.ByName(s.backend)
	if err != nil {
		return nil, err
	}
	keys, rkeys := setInputs(newKeygen(seed, 1), s)
	vS, vR := encAll(keys), encAll(rkeys)
	e.backend, e.vS, e.vR = b, vS, vR
	want := make(map[string]bool, s.common)
	for _, k := range keys[:s.common] {
		want[string(enc(k))] = true
	}
	srv, err := e.serve(&party.Server{Config: e.config(b, server, s), Values: vS, Policy: policy(s)})
	if err != nil {
		return nil, err
	}
	cli := e.client(e.config(b, client, s), srv.addr)
	f := &fixture{e: e, srv: srv}
	f.query = func(ctx context.Context) error {
		var res *core.IntersectionResult
		err := e.timedSession(func() (err error) {
			res, err = cli.Intersect(ctx, vR)
			return err
		})
		if err != nil {
			return err
		}
		return checkIntersection(res.Values, res.SenderSetSize, want, s.nS)
	}
	// One untimed query warms the process (goroutine stacks, socket
	// buffers, lazily built tables) so the window measures steady state.
	if err := f.query(ctx); err != nil {
		_ = srv.stop()
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return f, nil
}

func checkIntersection(got [][]byte, senderSize int, want map[string]bool, nS int) error {
	if senderSize != nS {
		return fmt.Errorf("wrong answer: |V_S| reported %d, want %d", senderSize, nS)
	}
	if len(got) != len(want) {
		return fmt.Errorf("wrong answer: %d values in the intersection, want %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for _, v := range got {
		if !want[string(v)] || seen[string(v)] {
			return fmt.Errorf("wrong answer: %q is not in V_S ∩ V_R or is repeated", v)
		}
		seen[string(v)] = true
	}
	return nil
}

func buildWarm(ctx context.Context, s spec, e *env, seed uint64) (*fixture, error) {
	b, err := group.ByName(s.backend)
	if err != nil {
		return nil, err
	}
	k := newKeygen(seed, 2)
	keys, rkeys := setInputs(k, s)
	table := reldb.NewTable("customers", tableSchema)
	want := make(map[string][]byte, s.common)
	isCommon := make(map[string]bool, s.common)
	for _, key := range keys[:s.common] {
		isCommon[key] = true
	}
	for _, key := range keys {
		row := reldb.Row{reldb.String(key), reldb.String(k.payload())}
		if err := table.Insert(row); err != nil {
			return nil, err
		}
		if isCommon[key] {
			want[string(enc(key))] = reldb.EncodeRows([]reldb.Row{row})
		}
		e.extLen = kenc.NewHybrid(b).CiphertextLen(len(reldb.EncodeRows([]reldb.Row{row})))
	}
	binding, err := party.BindTable(table, "key")
	if err != nil {
		return nil, err
	}
	e.binding = binding
	e.setCache = core.NewSenderSetCache(0, &e.cache)
	srvCfg := e.config(b, server, s)
	srv, err := e.serve(&party.Server{Config: srvCfg, Source: binding, SetCache: e.setCache, Policy: policy(s)})
	if err != nil {
		return nil, err
	}
	cliCfg := e.config(b, client, s)
	cliCfg.Shards = s.shards
	cli := e.client(cliCfg, srv.addr)
	vR := encAll(rkeys)
	e.backend, e.vS, e.vR = b, encAll(keys), vR
	f := &fixture{e: e, srv: srv}
	f.query = func(ctx context.Context) error {
		var res *core.JoinResult
		err := e.timedSession(func() (err error) {
			res, err = cli.Join(ctx, vR)
			return err
		})
		if err != nil {
			return err
		}
		return checkJoin(res, want, s.nS, table.Version())
	}
	// The first query fills the sender's encrypted-set cache; it is the
	// workload's set-up, not part of the window.
	if err := f.query(ctx); err != nil {
		_ = srv.stop()
		return nil, fmt.Errorf("cache-filling query: %w", err)
	}
	return f, nil
}

func checkJoin(res *core.JoinResult, want map[string][]byte, nS int, version uint64) error {
	if res.SenderSetSize != nS {
		return fmt.Errorf("wrong answer: |V_S| reported %d, want %d", res.SenderSetSize, nS)
	}
	if res.SenderDataVersion != version {
		return fmt.Errorf("wrong answer: served version %d, table is at %d", res.SenderDataVersion, version)
	}
	if len(res.Matches) != len(want) {
		return fmt.Errorf("wrong answer: %d join matches, want %d", len(res.Matches), len(want))
	}
	seen := make(map[string]bool, len(res.Matches))
	for _, m := range res.Matches {
		ext, ok := want[string(m.Value)]
		if !ok || seen[string(m.Value)] {
			return fmt.Errorf("wrong answer: %q is not in V_S ∩ V_R or is repeated", m.Value)
		}
		seen[string(m.Value)] = true
		if string(ext) != string(m.Ext) {
			return fmt.Errorf("wrong answer: payload of %q differs from the table's", m.Value)
		}
	}
	return nil
}
