package main

import (
	"net"
	"sync/atomic"
)

// wireCounter totals the bytes that crossed every connection a
// countingListener accepted, seen from the site: in is what the sites
// read (driver → site), out what they wrote (site → driver).
type wireCounter struct {
	in, out atomic.Int64
}

// countingListener hands out connections that bill their traffic to c.
// It is the benchmark's only view of the wire: nothing inside the
// program under test is counted or changed.
type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}
