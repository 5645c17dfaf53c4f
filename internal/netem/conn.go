package netem

import (
	"net"
	"sync"
	"time"
)

// Wrap shapes the write direction of c with p: writes are chunked at
// the profile MTU, paced through the token bucket, and delivered to
// the underlying connection after the scheduled delay. Reads pass
// through untouched — shaping both directions of a connection means
// wrapping both endpoints (each with its own shaper and RNG stream).
//
// Write blocks when the emulated socket buffer (Profile.Buffer) is
// full, so senders feel the same backpressure a congested real link
// exerts. Close stops accepting writes immediately and closes the
// underlying connection once the queued chunks have drained, bounded
// by a grace deadline so a peer that stopped reading cannot wedge
// teardown.
func Wrap(c net.Conn, p Profile) net.Conn {
	s := &shaper{
		dst:    c,
		pc:     newPacer(p),
		mtu:    p.mtu(),
		bufCap: p.buffer(),
		start:  time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return &shapedConn{Conn: c, s: s}
}

// Pipe returns an in-memory connection pair with both directions
// shaped by p — the netem analogue of net.Pipe, used by tests and the
// in-process harness.
func Pipe(p Profile) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return Wrap(a, p), Wrap(b, p)
}

// shapedConn overrides the write path of a net.Conn with a shaper.
type shapedConn struct {
	net.Conn
	s *shaper
}

func (c *shapedConn) Write(b []byte) (int, error) { return c.s.write(b) }

func (c *shapedConn) Close() error { return c.s.close() }

// shaper owns one shaped direction: a bounded FIFO of scheduled
// chunks drained by a pump goroutine at their due times. Due times
// are nondecreasing, so the pump only ever sleeps on the head chunk.
type shaper struct {
	dst    net.Conn
	mtu    int
	bufCap int
	start  time.Time

	mu     sync.Mutex
	cond   *sync.Cond
	pc     *pacer
	q      []chunk
	queued int
	closed bool
	err    error
}

type chunk struct {
	b   []byte
	due time.Duration
}

func (s *shaper) write(b []byte) (int, error) {
	written := 0
	for len(b) > 0 {
		n := len(b)
		if n > s.mtu {
			n = s.mtu
		}
		s.mu.Lock()
		for s.queued+n > s.bufCap && s.queued > 0 && !s.closed && s.err == nil {
			s.cond.Wait()
		}
		if s.closed || s.err != nil {
			err := s.err
			s.mu.Unlock()
			if err == nil {
				err = net.ErrClosed
			}
			return written, err
		}
		// The chunk is copied: callers reuse write buffers as soon as
		// Write returns, but the pump delivers this data much later.
		cp := make([]byte, n)
		copy(cp, b[:n])
		due := s.pc.next(time.Since(s.start), n)
		s.q = append(s.q, chunk{b: cp, due: due})
		s.queued += n
		s.cond.Broadcast()
		s.mu.Unlock()
		b = b[n:]
		written += n
	}
	return written, nil
}

func (s *shaper) close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// run is the pump: it sleeps until the head chunk is due, writes it
// to the underlying connection, and repeats. Once the shaper is
// closed and drained (or a write error is sticky) it closes the
// underlying connection.
func (s *shaper) run() {
	for {
		s.mu.Lock()
		for len(s.q) == 0 && !s.closed && s.err == nil {
			s.cond.Wait()
		}
		if s.err != nil || (s.closed && len(s.q) == 0) {
			s.q, s.queued = nil, 0
			s.cond.Broadcast()
			s.mu.Unlock()
			s.dst.Close()
			return
		}
		c := s.q[0]
		closing := s.closed
		s.mu.Unlock()

		if d := c.due - time.Since(s.start); d > 0 {
			time.Sleep(d)
		}
		if closing {
			// Drain under a grace deadline so a peer that stopped
			// reading cannot hold the socket open forever.
			s.dst.SetWriteDeadline(time.Now().Add(5 * time.Second))
		}
		_, werr := s.dst.Write(c.b)

		s.mu.Lock()
		s.q = s.q[1:]
		s.queued -= len(c.b)
		if werr != nil && s.err == nil {
			s.err = werr
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
