package remote

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"distcfd/internal/core"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// TestServeContextShutdown pins the graceful-shutdown contract of the
// per-server base context: cancelling it returns ServeAPIContext(nil),
// closes the listener to new connections, and kills site work on
// connections that are still open — a shutting-down cfdsite stops
// doing detection work whose driver will never hear the answer.
func TestServeContextShutdown(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.EMPData()
	site := core.NewSite(0, data, relation.True())
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeAPIContext(ctx, lis, site, data.Schema()) }()

	sites, _, err := Dial([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the site answers while the base context is live.
	rule := workload.EMPCFDs()[0]
	if _, err := sites[0].DetectConstantsLocal(context.Background(), rule); err != nil {
		t.Fatalf("pre-shutdown call failed: %v", err)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeAPIContext after cancel = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeAPIContext did not return after cancel")
	}

	// The established connection is still served, but handler site work
	// now runs under the dead base context and must refuse.
	_, err = sites[0].DetectConstantsLocal(context.Background(), rule)
	if err == nil {
		t.Error("handler on a shut-down server still did site work")
	} else if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("post-shutdown handler error = %v, want context.Canceled through the wire", err)
	}

	// New connections are refused: the listener is closed.
	if _, _, err := Dial([]string{lis.Addr().String()}); err == nil {
		t.Error("Dial succeeded against a shut-down listener")
	}
}

// TestServeContextPreCancelled pins the degenerate case: a context that
// is already dead serves nothing and returns nil immediately.
func TestServeContextPreCancelled(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	data := workload.EMPData()
	site := core.NewSite(0, data, relation.True())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- ServeAPIContext(ctx, lis, site, data.Schema()) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("ServeAPIContext with dead ctx = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeAPIContext with a pre-cancelled ctx hung")
	}
}
