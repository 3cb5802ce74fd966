package main

import (
	"io"
	"net"
	"testing"
)

// pipeListener hands out one scripted connection.
type pipeListener struct {
	conns chan net.Conn
}

func (l pipeListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}
func (l pipeListener) Close() error   { return nil }
func (l pipeListener) Addr() net.Addr { return nil }

// TestCountingListener scripts one connection and checks that the
// counter saw exactly what was written, in each direction.
func TestCountingListener(t *testing.T) {
	client, server := net.Pipe()
	lis := pipeListener{conns: make(chan net.Conn, 1)}
	lis.conns <- server
	var wc wireCounter
	accepted, err := countingListener{lis, &wc}.Accept()
	if err != nil {
		t.Fatal(err)
	}

	toSite := make([]byte, 1234)
	fromSite := make([]byte, 567)
	done := make(chan error, 1)
	go func() {
		if _, err := client.Write(toSite); err != nil {
			done <- err
			return
		}
		_, err := io.ReadFull(client, make([]byte, len(fromSite)))
		done <- err
	}()
	// Read in two pieces: the count is of bytes, not calls.
	if _, err := io.ReadFull(accepted, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(accepted, make([]byte, 234)); err != nil {
		t.Fatal(err)
	}
	if _, err := accepted.Write(fromSite); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if in, out := wc.in.Load(), wc.out.Load(); in != int64(len(toSite)) || out != int64(len(fromSite)) {
		t.Errorf("counted %d in, %d out; %d and %d were written", in, out, len(toSite), len(fromSite))
	}
}
