package party

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minshare/internal/core"
	"minshare/internal/group"
	"minshare/internal/obs"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// waitGoroutines waits for the goroutine count to settle back to base,
// failing the test if stalled-session goroutines leaked.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d: session leak", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- MaxQueriesPerPeer regression -----------------------------------------

// TestQueryBudgetSpansConnections is the regression test for the
// host:port accounting bug: the per-peer budget must be charged to the
// remote *host*, so reconnecting from a fresh ephemeral port (which
// every TCP dial does) cannot reset it.  The N+1-th connection from one
// host must be rejected with ErrPolicy.
func TestQueryBudgetSpansConnections(t *testing.T) {
	const budget = 2
	srv := testServer(Policy{MaxQueriesPerPeer: budget})
	ctx := context.Background()
	cfg := core.Config{Group: group.TestGroup()}

	var port atomic.Int64
	port.Store(40000)
	srvErrs := make(chan error, budget+1)
	// Every dial presents the same host from a brand-new port, exactly
	// like a real client reconnecting.
	client := NewClientConnFunc(cfg, func(ctx context.Context) (transport.Conn, error) {
		peer := fmt.Sprintf("192.0.2.7:%d", port.Add(1))
		cConn, sConn := transport.Pipe()
		go func() {
			defer sConn.Close()
			srvErrs <- srv.HandleConn(ctx, peer, sConn)
		}()
		return cConn, nil
	})

	q := [][]byte{[]byte("a")}
	for i := 0; i < budget; i++ {
		if _, err := client.IntersectSize(ctx, q); err != nil {
			t.Fatalf("query %d within budget rejected: %v", i, err)
		}
		if err := <-srvErrs; err != nil {
			t.Fatalf("server error on query %d: %v", i, err)
		}
	}
	if _, err := client.IntersectSize(ctx, q); err == nil {
		t.Fatal("budget did not span connections: N+1-th connection answered")
	} else if !strings.Contains(err.Error(), "budget") {
		t.Errorf("client error %q lacks the budget reason", err)
	}
	if err := <-srvErrs; !errors.Is(err, ErrPolicy) {
		t.Errorf("server error = %v, want ErrPolicy", err)
	}
}

// --- accept-loop robustness -----------------------------------------------

// tempErr is a transient net.Error, like EMFILE or ECONNABORTED.
type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files (injected)" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// fakeListener scripts Accept results: errors and connections in order,
// then blocks until closed.
type fakeListener struct {
	events chan any // error or net.Conn
	closed chan struct{}
	addr   net.TCPAddr
}

func newFakeListener() *fakeListener {
	return &fakeListener{events: make(chan any, 16), closed: make(chan struct{})}
}

func (l *fakeListener) Accept() (net.Conn, error) {
	select {
	case ev := <-l.events:
		if err, ok := ev.(error); ok {
			return nil, err
		}
		return ev.(net.Conn), nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *fakeListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *fakeListener) Addr() net.Addr { return &l.addr }

// TestServeSurvivesAcceptErrorStorm: a storm of transient accept errors
// must not kill the server — it backs off, keeps retrying, and still
// answers the session that eventually arrives.  Regression test for the
// one-EMFILE-kills-the-server bug.
func TestServeSurvivesAcceptErrorStorm(t *testing.T) {
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	ln := newFakeListener()
	const storm = 6
	for i := 0; i < storm; i++ {
		ln.events <- tempErr{}
	}
	clientNC, serverNC := net.Pipe()
	ln.events <- serverNC

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	client := NewClientConnFunc(core.Config{Group: group.TestGroup()},
		func(ctx context.Context) (transport.Conn, error) {
			return transport.NewTCP(clientNC), nil
		})
	res, err := client.IntersectSize(context.Background(), [][]byte{[]byte("a")})
	if err != nil {
		t.Fatalf("session after accept storm failed: %v", err)
	}
	if res.IntersectionSize != 1 {
		t.Errorf("size = %d, want 1", res.IntersectionSize)
	}
	if got := srv.Obs.Lifecycle().Snapshot().AcceptRetries; got != storm {
		t.Errorf("accept_retries = %d, want %d", got, storm)
	}

	cancel()
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Errorf("Serve returned %v, want context.Canceled", err)
	}
}

// TestServeReturnsOnFatalAcceptError: a non-transient accept failure
// still ends the loop (with the cause), rather than spinning forever.
func TestServeReturnsOnFatalAcceptError(t *testing.T) {
	srv := testServer(Policy{})
	ln := newFakeListener()
	fatal := errors.New("listener torn out of the wall")
	ln.events <- fatal

	err := srv.Serve(context.Background(), ln)
	if !errors.Is(err, fatal) {
		t.Fatalf("Serve returned %v, want the fatal accept error", err)
	}
}

// --- timeouts -------------------------------------------------------------

// scriptedPeer speaks raw frames against a Server for timeout tests.
type scriptedPeer struct {
	t     *testing.T
	conn  transport.Conn
	codec *wire.Codec
	g     *group.Group
}

func newScriptedPeer(t *testing.T, conn transport.Conn) *scriptedPeer {
	g := group.TestGroup()
	return &scriptedPeer{t: t, conn: conn, codec: wire.NewCodec(g), g: g}
}

func (p *scriptedPeer) sendHeader(proto wire.Protocol, n int) {
	p.t.Helper()
	hdr := wire.Header{
		Protocol:    proto,
		GroupBits:   uint32(p.g.Bits()),
		GroupDigest: wire.GroupDigest(p.g),
		SetSize:     uint64(n),
	}
	data, err := p.codec.Encode(hdr)
	if err != nil {
		p.t.Fatalf("encode header: %v", err)
	}
	if err := p.conn.Send(context.Background(), data); err != nil {
		p.t.Errorf("send header: %v", err)
	}
}

// TestHandshakeTimeoutEvictsSilentPeer: a peer that connects and never
// sends its header is evicted within the handshake allowance.
func TestHandshakeTimeoutEvictsSilentPeer(t *testing.T) {
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.Timeouts = Timeouts{Handshake: 100 * time.Millisecond}

	cConn, sConn := transport.Pipe()
	defer cConn.Close()
	start := time.Now()
	err := srv.HandleConn(context.Background(), "silent:1", sConn)
	if err == nil {
		t.Fatal("silent peer was not evicted")
	}
	if !errors.Is(err, errHandshakeTimeout) {
		t.Errorf("err = %v, want handshake timeout", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("eviction took %v", d)
	}
	if got := srv.Obs.Lifecycle().Snapshot().HandshakeTimeouts; got != 1 {
		t.Errorf("handshake_timeouts = %d, want 1", got)
	}
}

// TestIdleTimeoutEvictsMidStreamStaller: a peer that completes the
// handshake and then stalls must be evicted by the per-frame idle
// allowance, counted as an idle (not handshake) timeout.
func TestIdleTimeoutEvictsMidStreamStaller(t *testing.T) {
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.Timeouts = Timeouts{Handshake: time.Second, Idle: 100 * time.Millisecond}

	cConn, sConn := transport.Pipe()
	defer cConn.Close()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(context.Background(), "staller:1", sConn) }()

	peer := newScriptedPeer(t, cConn)
	peer.sendHeader(wire.ProtoIntersection, 3)
	if _, err := cConn.Recv(context.Background()); err != nil { // server's header
		t.Fatalf("reading server header: %v", err)
	}
	// ... and now stall: never send Y_R.
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrIdleTimeout) {
			t.Errorf("err = %v, want ErrIdleTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mid-stream staller was not evicted")
	}
	lc := srv.Obs.Lifecycle().Snapshot()
	if lc.IdleTimeouts != 1 || lc.HandshakeTimeouts != 0 {
		t.Errorf("lifecycle = %+v, want exactly one idle timeout", lc)
	}
	// The failed run still landed in the session registry.
	snap := srv.Obs.Snapshot()
	if snap.SessionsFailed != 1 {
		t.Errorf("sessions_failed = %d, want 1", snap.SessionsFailed)
	}
}

// TestSessionTimeoutCapsWholeRun: with only the whole-session deadline
// set, a stalled run is evicted and counted as a session timeout.
func TestSessionTimeoutCapsWholeRun(t *testing.T) {
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.Timeouts = Timeouts{Session: 150 * time.Millisecond}

	cConn, sConn := transport.Pipe()
	defer cConn.Close()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(context.Background(), "slow:1", sConn) }()

	peer := newScriptedPeer(t, cConn)
	peer.sendHeader(wire.ProtoIntersection, 3)
	if _, err := cConn.Recv(context.Background()); err != nil {
		t.Fatalf("reading server header: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session deadline did not fire")
	}
	if got := srv.Obs.Lifecycle().Snapshot().SessionTimeouts; got != 1 {
		t.Errorf("session_timeouts = %d, want 1", got)
	}
}

// TestStalledPeersDoNotStarveHealthySessions is the acceptance test: two
// peers that connect over real TCP and never speak are evicted by the
// handshake allowance while a healthy session completes concurrently,
// and nothing leaks.
func TestStalledPeersDoNotStarveHealthySessions(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.Timeouts = Timeouts{Handshake: 200 * time.Millisecond, Idle: 2 * time.Second}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	// Two stalled peers: connect, never send.
	var stalled []net.Conn
	for i := 0; i < 2; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		stalled = append(stalled, nc)
	}

	// A healthy session races the stalled ones.
	client := NewClient(ln.Addr().String(), core.Config{Group: group.TestGroup()})
	res, err := client.Intersect(context.Background(), [][]byte{[]byte("a"), []byte("zz")})
	if err != nil {
		t.Fatalf("healthy session failed alongside stalled peers: %v", err)
	}
	if len(res.Values) != 1 || string(res.Values[0]) != "a" {
		t.Errorf("result = %v", res.Values)
	}

	// The stalled peers must be disconnected within the allowance: the
	// server closes the conn, so a read observes EOF.
	for i, nc := range stalled {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil {
			t.Errorf("stalled conn %d still open after handshake allowance", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Obs.Lifecycle().Snapshot().HandshakeTimeouts < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Obs.Lifecycle().Snapshot().HandshakeTimeouts; got != 2 {
		t.Errorf("handshake_timeouts = %d, want 2", got)
	}

	cancel()
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Errorf("Serve returned %v", err)
	}
	waitGoroutines(t, base)
}

// --- saturation -----------------------------------------------------------

// TestSaturationRejectsExplicitly: the MaxSessions+1-th concurrent
// session is refused immediately with a wire error the peer can read —
// not queued, not silently dropped — and a slot freeing up readmits.
func TestSaturationRejectsExplicitly(t *testing.T) {
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.MaxSessions = 1
	ctx := context.Background()

	// Occupy the only slot with a session that holds it until released.
	holdC, holdS := transport.Pipe()
	holding := make(chan error, 1)
	go func() { holding <- srv.HandleConn(ctx, "holder:1", holdS) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder session never started")
		}
		time.Sleep(time.Millisecond)
	}

	// The second arrival is refused with the saturation reason.
	client := pipeClient(t, srv)
	_, err := client.IntersectSize(ctx, [][]byte{[]byte("a")})
	if err == nil {
		t.Fatal("second session answered beyond MaxSessions")
	}
	if !errors.Is(err, core.ErrPeerFailure) || !strings.Contains(err.Error(), "saturated") {
		t.Errorf("client error = %v, want peer failure carrying saturation text", err)
	}
	if got := srv.Obs.Lifecycle().Snapshot().SaturationRejects; got != 1 {
		t.Errorf("saturation_rejects = %d, want 1", got)
	}

	// Release the slot; the next session goes through.
	holdC.Close()
	<-holding
	if _, err := client.IntersectSize(ctx, [][]byte{[]byte("a")}); err != nil {
		t.Fatalf("session after slot freed failed: %v", err)
	}
}

// TestSaturationRejectReadsNothing: over TCP, refusing a session beyond
// MaxSessions costs the server one small Send and nothing more.  A
// rejectee whose opening frame declares MaxFrameLen bytes must not make
// the server allocate for it, nor hold the connection open waiting for
// the body.
func TestSaturationRejectReadsNothing(t *testing.T) {
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.MaxSessions = 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()

	// The holder takes the only slot and never speaks.
	holder, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder session never started")
		}
		time.Sleep(time.Millisecond)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rejectee, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rejectee.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], transport.MaxFrameLen)
	if _, err := rejectee.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server hangs up at once instead of waiting out its 2 s send
	// allowance for a body that never comes.
	start := time.Now()
	_ = rejectee.SetReadDeadline(start.Add(5 * time.Second))
	_, _ = io.Copy(io.Discard, rejectee)
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("server held the rejected connection %v", waited)
	}
	for srv.Obs.Lifecycle().Snapshot().SaturationRejects != 1 {
		if time.Now().After(deadline) {
			t.Fatal("rejection never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("server allocated %d bytes refusing a session", grew)
	}
}

// --- graceful drain -------------------------------------------------------

// TestGracefulDrainLetsInFlightSessionsFinish: cancelling Serve's
// context mid-session stops accepting but lets the in-flight run finish
// inside the drain allowance; the client still gets its full result.
func TestGracefulDrainLetsInFlightSessionsFinish(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.DrainTimeout = 10 * time.Second

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	// A deliberately slow client: every frame crosses a 120ms-RTT link,
	// so the session is still in flight when shutdown begins.
	slow := NewClientConnFunc(core.Config{Group: group.TestGroup()},
		func(ctx context.Context) (transport.Conn, error) {
			inner, err := transport.Dial(ctx, "tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			return transport.NewLatency(inner, 120*time.Millisecond), nil
		})
	type result struct {
		res *core.IntersectionResult
		err error
	}
	got := make(chan result, 1)
	go func() {
		res, err := slow.Intersect(context.Background(), [][]byte{[]byte("a"), []byte("b"), []byte("zz")})
		got <- result{res, err}
	}()

	// Shut down as soon as the session is registered in flight.
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight session killed by graceful shutdown: %v", r.err)
	}
	if len(r.res.Values) != 2 {
		t.Errorf("intersection = %d values, want 2", len(r.res.Values))
	}
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Errorf("Serve returned %v, want context.Canceled", err)
	}
	lc := srv.Obs.Lifecycle().Snapshot()
	if lc.Drains != 1 || lc.DrainForced != 0 {
		t.Errorf("lifecycle = %+v, want one clean drain", lc)
	}
	waitGoroutines(t, base)
}

// TestDrainDeadlineForceCancelsStragglers: a session still stalled when
// the drain deadline hits is force-cancelled, so shutdown completes
// promptly even with a peer wedged in a read.
func TestDrainDeadlineForceCancelsStragglers(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := testServer(Policy{})
	srv.Obs = obs.NewRegistry()
	srv.DrainTimeout = 150 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	// A peer that connects and wedges: no timeouts are configured, so
	// only the drain deadline can evict it.
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedged session never started")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-served:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still draining 5s after the 150ms drain deadline")
	}
	lc := srv.Obs.Lifecycle().Snapshot()
	if lc.Drains != 1 || lc.DrainForced != 1 || lc.DrainCancelled != 1 {
		t.Errorf("lifecycle = %+v, want one forced drain cancelling one session", lc)
	}
	waitGoroutines(t, base)
}

// --- client retry ---------------------------------------------------------

// TestClientRetriesTransientDialFailures: flaky dials are retried with
// backoff until the server answers; the retries land in the lifecycle
// census.
func TestClientRetriesTransientDialFailures(t *testing.T) {
	srv := testServer(Policy{})
	reg := obs.NewRegistry()
	var dials atomic.Int64
	client := NewClientConnFunc(core.Config{Group: group.TestGroup()},
		func(ctx context.Context) (transport.Conn, error) {
			if dials.Add(1) <= 2 {
				return nil, errors.New("connection refused (injected)")
			}
			cConn, sConn := transport.Pipe()
			go func() {
				defer sConn.Close()
				_ = srv.HandleConn(ctx, "flaky:1", sConn)
			}()
			return cConn, nil
		})
	client.Retry = Retry{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	client.Obs = reg

	res, err := client.IntersectSize(context.Background(), [][]byte{[]byte("a")})
	if err != nil {
		t.Fatalf("retried session failed: %v", err)
	}
	if res.IntersectionSize != 1 {
		t.Errorf("size = %d, want 1", res.IntersectionSize)
	}
	if got := dials.Load(); got != 3 {
		t.Errorf("dials = %d, want 3 (two failures, one success)", got)
	}
	if got := reg.Lifecycle().Snapshot().ClientRetries; got != 2 {
		t.Errorf("client_retries = %d, want 2", got)
	}
}

// TestClientRetryGivesUpAfterAttempts: a dead server exhausts the
// attempt budget and surfaces the dial error.
func TestClientRetryGivesUpAfterAttempts(t *testing.T) {
	var dials atomic.Int64
	refused := errors.New("connection refused (injected)")
	client := NewClientConnFunc(core.Config{Group: group.TestGroup()},
		func(ctx context.Context) (transport.Conn, error) {
			dials.Add(1)
			return nil, refused
		})
	client.Retry = Retry{Attempts: 3, BaseDelay: time.Millisecond}

	_, err := client.IntersectSize(context.Background(), [][]byte{[]byte("a")})
	if !errors.Is(err, refused) {
		t.Fatalf("err = %v, want the dial error", err)
	}
	if got := dials.Load(); got != 3 {
		t.Errorf("dials = %d, want 3", got)
	}
}

// TestClientNeverRetriesDeliveredSession is the acceptance test for the
// non-idempotency rule: once the client's opening header has been
// delivered, a failure must NOT trigger a re-run — the peer has already
// learned |V_R| and charged the query budget.  The scripted peer reads
// the header and kills the connection; the client must fail after
// exactly one dial despite a generous retry budget.
func TestClientNeverRetriesDeliveredSession(t *testing.T) {
	var dials atomic.Int64
	headerSeen := make(chan struct{}, 8)
	client := NewClientConnFunc(core.Config{Group: group.TestGroup()},
		func(ctx context.Context) (transport.Conn, error) {
			dials.Add(1)
			cConn, sConn := transport.Pipe()
			go func() {
				// Scripted peer: consume the handshake, then fail the
				// connection without answering.
				if _, err := sConn.Recv(context.Background()); err == nil {
					headerSeen <- struct{}{}
				}
				sConn.Close()
			}()
			return cConn, nil
		})
	client.Retry = Retry{Attempts: 5, BaseDelay: time.Millisecond}

	_, err := client.IntersectSize(context.Background(), [][]byte{[]byte("a")})
	if err == nil {
		t.Fatal("session succeeded against a peer that hung up")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("client dialled %d times, want 1: a delivered session must never re-run", got)
	}
	select {
	case <-headerSeen:
	case <-time.After(time.Second):
		t.Fatal("scripted peer never saw the header")
	}
}

// TestRetryBackoffBounds: the jittered exponential backoff stays inside
// [delay/2, delay] with the exponential capped at MaxDelay.
func TestRetryBackoffBounds(t *testing.T) {
	r := Retry{Attempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for n := 0; n < 8; n++ {
		want := 10 * time.Millisecond << n
		if want > 80*time.Millisecond {
			want = 80 * time.Millisecond
		}
		for trial := 0; trial < 20; trial++ {
			got := r.backoff(n)
			if got < want/2 || got > want {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", n, got, want/2, want)
			}
		}
	}
}
