package scone

import (
	"io"
	"net"
)

// sysConn wraps a network connection: reads and writes go through the
// asynchronous syscall queue and charge the boundary copy.
type sysConn struct {
	rt *Runtime
	net.Conn
}

func (c *sysConn) Read(p []byte) (int, error) {
	var n int
	var err error
	// Reads park until the peer sends; keep them out of the request
	// ring so they cannot starve other threads' syscalls.
	c.rt.BlockingSyscall(func() { n, err = c.Conn.Read(p) })
	c.rt.CopyIn(n)
	return n, err
}

// ReadFull fills p as one syscall submission. How many Read calls a
// message takes depends on how the host kernel chunked it in wall time;
// charging the whole read once keeps a framed receive's virtual cost a
// function of the message alone.
func (c *sysConn) ReadFull(p []byte) (int, error) {
	var n int
	var err error
	c.rt.BlockingSyscall(func() { n, err = io.ReadFull(c.Conn, p) })
	c.rt.CopyIn(n)
	return n, err
}

func (c *sysConn) Write(p []byte) (int, error) {
	var n int
	var err error
	c.rt.CopyOut(len(p))
	c.rt.Syscall(func() { n, err = c.Conn.Write(p) })
	return n, err
}

func (c *sysConn) Close() error {
	var err error
	c.rt.Syscall(func() { err = c.Conn.Close() })
	return err
}

// sysListener wraps a listener; Accept goes through the syscall queue.
type sysListener struct {
	rt *Runtime
	net.Listener
}

func (l *sysListener) Accept() (net.Conn, error) {
	var conn net.Conn
	var err error
	// Accept parks until a client dials; same reasoning as Read.
	l.rt.BlockingSyscall(func() { conn, err = l.Listener.Accept() })
	if err != nil {
		return nil, err
	}
	return &sysConn{rt: l.rt, Conn: conn}, nil
}
