package main

import (
	"context"
	"math/big"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minshare/internal/group"
	"minshare/internal/kenc"
	"minshare/internal/obs"
	"minshare/internal/transport"
)

// The traced run wraps the interfaces the repository already lets a
// caller inject — group.Backend, kenc.Cipher, transport.Conn, and the
// net.Listener handed to party.Server.Serve — and records one span per
// wrapped call.  Nothing inside the program is instrumented: every span
// is taken at a layer boundary, from this package.

// Parties that own spans.
const (
	client uint8 = iota
	server
	numParties
)

// partyRoles names each party as obs does: the client is the receiver
// R, the server the sender S.
var partyRoles = [numParties]string{"receiver", "sender"}

// Span operations.  Each belongs to one of the repository's modules.
const (
	opSession  uint8 = iota // party: one Client call
	opDial                  // party: the client's connection factory
	opConn                  // party: one served connection, accept to close
	opSend                  // transport: client Conn.Send
	opRecv                  // transport: client Conn.Recv
	opRead                  // transport: server socket Read
	opWrite                 // transport: server socket Write
	opMap                   // group: MapToElement (the oracle's landing step)
	opApply                 // group: Apply, one C_e
	opContains              // group: Contains, element validation
	opEncrypt               // kenc: Encrypt
	opDecrypt               // kenc: Decrypt
	numOps
)

var opInfo = [numOps]struct{ layer, name string }{
	opSession:  {"party", "session"},
	opDial:     {"party", "dial"},
	opConn:     {"party", "conn"},
	opSend:     {"transport", "send"},
	opRecv:     {"transport", "recv"},
	opRead:     {"transport", "read"},
	opWrite:    {"transport", "write"},
	opMap:      {"group", "map"},
	opApply:    {"group", "apply"},
	opContains: {"group", "contains"},
	opEncrypt:  {"kenc", "encrypt"},
	opDecrypt:  {"kenc", "decrypt"},
}

// span is one recorded call.  Times are nanoseconds since the tracer's
// base; query is the client query the call served.
type span struct {
	start, end int64
	query      int32
	party, op  uint8
}

// Sample sizes kept for the post-window replays.
const (
	captureElems  = 256 // group inputs per kind
	captureFrames = 64  // client frames in each direction
)

// tracer keeps spans in memory for the length of one traced window.
type tracer struct {
	base  time.Time
	query atomic.Int32
	conns atomic.Int32 // client connections dialled so far

	mu    sync.Mutex
	spans []span
	open  map[*tracedNetConn]int64 // served connections not yet closed

	// Replay samples: hash-to-group inputs, Apply/Contains inputs, and
	// whole client frames with their direction.
	uniform [][]byte
	elems   []*big.Int
	frames  []capturedFrame
}

type capturedFrame struct {
	conn int32 // which client connection carried it
	sent bool
	data []byte
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: make(map[*tracedNetConn]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(party, op uint8, start int64) {
	end := t.now()
	q := t.query.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, query: q, party: party, op: op})
	t.mu.Unlock()
}

func (t *tracer) captureUniform(u []byte) {
	t.mu.Lock()
	if len(t.uniform) < captureElems {
		t.uniform = append(t.uniform, append([]byte(nil), u...))
	}
	t.mu.Unlock()
}

func (t *tracer) captureElem(x *big.Int) {
	t.mu.Lock()
	if len(t.elems) < captureElems {
		t.elems = append(t.elems, new(big.Int).Set(x))
	}
	t.mu.Unlock()
}

func (t *tracer) captureFrame(conn int32, sent bool, data []byte) {
	t.mu.Lock()
	if len(t.frames) < 2*captureFrames {
		t.frames = append(t.frames, capturedFrame{conn: conn, sent: sent, data: append([]byte(nil), data...)})
	}
	t.mu.Unlock()
}

// resetCapture drops the samples taken during set-up, so the replays
// see the window's own traffic.
func (t *tracer) resetCapture() {
	t.mu.Lock()
	t.uniform, t.elems, t.frames = nil, nil, nil
	t.mu.Unlock()
}

// snapshot returns the recorded spans, closing still-open served
// connections at the current instant.
func (t *tracer) snapshot() []span {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for _, start := range t.open {
		out = append(out, span{start: start, end: now, party: server, op: opConn})
	}
	return out
}

// tracedGroup times the backend operations of one party.  oracle.New
// calls MapToElement through the configured backend, so hash-to-group
// is timed as well.
type tracedGroup struct {
	group.Backend
	t     *tracer
	party uint8
}

func (g *tracedGroup) MapToElement(uniform []byte) *big.Int {
	start := g.t.now()
	x := g.Backend.MapToElement(uniform)
	g.t.add(g.party, opMap, start)
	g.t.captureUniform(uniform)
	return x
}

func (g *tracedGroup) Apply(e *group.Scalar, x *big.Int) (*big.Int, error) {
	start := g.t.now()
	y, err := g.Backend.Apply(e, x)
	g.t.add(g.party, opApply, start)
	g.t.captureElem(x)
	return y, err
}

func (g *tracedGroup) Contains(x *big.Int) bool {
	start := g.t.now()
	ok := g.Backend.Contains(x)
	g.t.add(g.party, opContains, start)
	return ok
}

// tracedCipher times the ext(v) payload cipher K.
type tracedCipher struct {
	kenc.Cipher
	t     *tracer
	party uint8
}

func (c *tracedCipher) Encrypt(kappa *big.Int, plaintext []byte) ([]byte, error) {
	start := c.t.now()
	out, err := c.Cipher.Encrypt(kappa, plaintext)
	c.t.add(c.party, opEncrypt, start)
	return out, err
}

func (c *tracedCipher) Decrypt(kappa *big.Int, ciphertext []byte) ([]byte, error) {
	start := c.t.now()
	out, err := c.Cipher.Decrypt(kappa, ciphertext)
	c.t.add(c.party, opDecrypt, start)
	return out, err
}

// tracedConn times the client's frame transport and keeps a sample of
// the frames for the codec replay.
type tracedConn struct {
	transport.Conn
	t  *tracer
	id int32
}

func (c *tracedConn) Send(ctx context.Context, frame []byte) error {
	start := c.t.now()
	err := c.Conn.Send(ctx, frame)
	c.t.add(client, opSend, start)
	c.t.captureFrame(c.id, true, frame)
	return err
}

func (c *tracedConn) Recv(ctx context.Context) ([]byte, error) {
	start := c.t.now()
	frame, err := c.Conn.Recv(ctx)
	c.t.add(client, opRecv, start)
	if err == nil {
		c.t.captureFrame(c.id, false, frame)
	}
	return frame, err
}

// tracedListener hands party.Server.Serve sockets that time every read
// and write, and records each connection's lifetime as the server's
// session span.  The server builds its transport.Conn on top, so a read
// span is time the server's transport spent waiting for the client.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &tracedNetConn{Conn: nc, t: l.t}
	l.t.mu.Lock()
	l.t.open[c] = l.t.now()
	l.t.mu.Unlock()
	return c, nil
}

type tracedNetConn struct {
	net.Conn
	t    *tracer
	once sync.Once
}

func (c *tracedNetConn) Read(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Read(p)
	c.t.add(server, opRead, start)
	return n, err
}

func (c *tracedNetConn) Write(p []byte) (int, error) {
	start := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.add(server, opWrite, start)
	return n, err
}

func (c *tracedNetConn) Close() error {
	c.once.Do(func() {
		c.t.mu.Lock()
		start, ok := c.t.open[c]
		delete(c.t.open, c)
		c.t.mu.Unlock()
		if ok {
			c.t.add(server, opConn, start)
		}
	})
	return c.Conn.Close()
}

// ---------------------------------------------------------------------
// Span arithmetic
// ---------------------------------------------------------------------

type interval struct{ lo, hi int64 }

// union merges intervals into a sorted, disjoint list.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func length(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}

// covered returns how much of [lo, hi) the disjoint sorted list covers.
func covered(u []interval, lo, hi int64) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > lo })
	var n int64
	for ; i < len(u) && u[i].lo < hi; i++ {
		a, b := max(u[i].lo, lo), min(u[i].hi, hi)
		if b > a {
			n += b - a
		}
	}
	return n
}

// clip restricts spans to the window [lo, hi), dropping those outside.
func clip(spans []span, lo, hi int64) []span {
	var out []span
	for _, s := range spans {
		if s.end <= lo || s.start >= hi {
			continue
		}
		s.start, s.end = max(s.start, lo), min(s.end, hi)
		out = append(out, s)
	}
	return out
}

// selfTime sums, over the party's parent spans, the wall time not
// covered by any of its child spans: the time the party spent in core
// protocol code (encoding, sorting, matching, scheduling) rather than in
// a wrapped layer.
func selfTime(spans []span, party, parentOp uint8, childOps ...uint8) int64 {
	isChild := make(map[uint8]bool, len(childOps))
	for _, op := range childOps {
		isChild[op] = true
	}
	var kids []interval
	for _, s := range spans {
		if s.party == party && isChild[s.op] {
			kids = append(kids, interval{s.start, s.end})
		}
	}
	u := union(kids)
	var self int64
	for _, s := range spans {
		if s.party == party && s.op == parentOp {
			self += (s.end - s.start) - covered(u, s.start, s.end)
		}
	}
	return self
}

// ---------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------

// exportQueries bounds the trace file: spans of the first few queries
// show every layer boundary, and a whole window would run to millions
// of events.
const exportQueries = 8

// sessions turns the spans of queries [first, first+exportQueries) into
// one obs session snapshot per party and query, so obs.WriteTraceEvents
// exports them in the same trace_event form as a server's own session
// traces: one process row per party and query, with the layer calls as
// spans named layer.op.
func sessions(spans []span, base time.Time, protocol string, first int32) []obs.SessionSnapshot {
	type key struct {
		party uint8
		query int32
	}
	byKey := map[key][]span{}
	var keys []key
	for _, sp := range spans {
		if sp.query < first || sp.query >= first+exportQueries {
			continue
		}
		k := key{sp.party, sp.query}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], sp)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].query != keys[j].query {
			return keys[i].query < keys[j].query
		}
		return keys[i].party < keys[j].party
	})
	snaps := make([]obs.SessionSnapshot, 0, len(keys))
	for _, k := range keys {
		own := byKey[k]
		lo, hi := own[0].start, own[0].end
		for _, sp := range own {
			lo, hi = min(lo, sp.start), max(hi, sp.end)
		}
		snap := obs.SessionSnapshot{
			ID:       uint64(k.query),
			Info:     obs.SessionInfo{Protocol: protocol, Role: partyRoles[k.party]},
			Start:    base.Add(time.Duration(lo)),
			Duration: time.Duration(hi - lo),
			Outcome:  "ok",
		}
		for _, sp := range own {
			info := opInfo[sp.op]
			snap.Spans = append(snap.Spans, obs.SpanSnapshot{
				Name:     info.layer + "." + info.name,
				Offset:   time.Duration(sp.start - lo),
				Duration: time.Duration(sp.end - sp.start),
			})
		}
		snaps = append(snaps, snap)
	}
	return snaps
}
