package party

import (
	"context"

	"minshare/internal/core"
	"minshare/internal/transport"
)

// Standing is a client-held standing query: the base result plus the
// open subscription that keeps it current.  R is the protocol's result
// type.  The connection stays dedicated to the subscription until
// Close.
type Standing[R any] struct {
	q    *core.Standing[R]
	conn transport.Conn
	end  func(error)
}

// IntersectStanding runs the intersection protocol and subscribes to
// the server's updates.  Unlike the one-shot calls the connection
// outlives the method: the caller owns the returned handle and must
// Close it.  Dial failures are retried under the client's Retry policy;
// a session that reached the server is never re-run (see Retry).
func (c *Client) IntersectStanding(ctx context.Context, values [][]byte) (*Standing[*core.IntersectionResult], error) {
	return openStanding(ctx, c, "intersection", values, core.IntersectionReceiverStanding)
}

// JoinStanding runs the equijoin protocol and subscribes to the
// server's updates.  The caller owns the returned handle and must
// Close it.
func (c *Client) JoinStanding(ctx context.Context, values [][]byte) (*Standing[*core.JoinResult], error) {
	return openStanding(ctx, c, "equijoin", values, core.EquijoinReceiverStanding)
}

// openStanding observes one standing session under proto and opens it
// with run over a freshly dialed connection.
func openStanding[R any](ctx context.Context, c *Client, proto string, values [][]byte,
	run func(context.Context, core.Config, transport.Conn, [][]byte) (*core.Standing[R], error),
) (*Standing[R], error) {
	ctx, end := c.observe(ctx, proto, len(values))
	var q *core.Standing[R]
	conn, err := c.dialRun(ctx, func(conn transport.Conn) (err error) {
		q, err = run(ctx, c.cfg, conn, values)
		return err
	})
	if err != nil {
		end(err)
		return nil, err
	}
	return &Standing[R]{q: q, conn: conn, end: end}, nil
}

// Result returns the base run's result, or the last update's.
func (s *Standing[R]) Result() R { return s.q.Result() }

// Version reports the server data version the current result reflects.
func (s *Standing[R]) Version() uint64 { return s.q.Version() }

// Await blocks for the next pushed update and returns the refreshed
// result, or core.ErrSubscriptionEnded once the server has ended the
// subscription (the last result stays valid).
func (s *Standing[R]) Await(ctx context.Context) (R, error) {
	return s.q.Await(ctx)
}

// Close ends the subscription and releases the connection.
func (s *Standing[R]) Close(ctx context.Context) error {
	err := s.q.Close(ctx)
	_ = s.conn.Close()
	s.end(err)
	return err
}
