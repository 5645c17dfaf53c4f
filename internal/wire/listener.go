package wire

import "net"

// Listener accepts framed connections, applying its options to each.
type Listener struct {
	l    net.Listener
	opts []Option
}

// Addr returns the bound address (use after Listen on port 0).
func (ln Listener) Addr() net.Addr { return ln.l.Addr() }

// Close stops accepting.
func (ln Listener) Close() error { return ln.l.Close() }

// Accept waits for the next connection.
func (ln Listener) Accept() (*Conn, error) {
	c, err := ln.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(c, ln.opts...), nil
}
