package core

import (
	"context"
	"testing"

	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// TestDepositNonceDedup pins the at-most-once contract of Deposit: a
// retransmitted batch (same nonce — the lost-response case a retry
// produces) is acknowledged without buffering again, a fresh nonce
// buffers, and the empty nonce disables dedup entirely.
func TestDepositNonceDedup(t *testing.T) {
	ctx := context.Background()
	s := NewSite(0, workload.EMPData(), relation.True())
	batch := workload.EMPData()
	buffered := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.deposits["run/b0"])
	}
	for i := 0; i < 3; i++ { // original + two retransmits
		if err := s.Deposit(ctx, "run/b0", batch, "n1"); err != nil {
			t.Fatal(err)
		}
	}
	if n := buffered(); n != 1 {
		t.Fatalf("retransmitted deposit buffered %d batches, want 1", n)
	}
	if err := s.Deposit(ctx, "run/b0", batch, "n2"); err != nil {
		t.Fatal(err)
	}
	if n := buffered(); n != 2 {
		t.Fatalf("fresh nonce buffered %d batches, want 2", n)
	}
	for i := 0; i < 2; i++ { // empty nonce: every deposit lands
		if err := s.Deposit(ctx, "run/b0", batch, ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := buffered(); n != 4 {
		t.Fatalf("empty-nonce deposits buffered %d batches, want 4", n)
	}
}

// TestDepositNonceEviction: the nonce memo is bounded FIFO — after
// nonceCap distinct nonces the oldest is forgotten and a very late
// retransmit would buffer again. The bound is the memory contract; the
// dedup window only has to outlive the retry window, which it does by
// orders of magnitude.
func TestDepositNonceEviction(t *testing.T) {
	ctx := context.Background()
	s := NewSite(0, workload.EMPData(), relation.True())
	batch := workload.EMPData()
	if err := s.Deposit(ctx, "t/b0", batch, "first"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nonceCap; i++ {
		if err := s.Deposit(ctx, "t/b1", batch, "fill-"+itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	_, remembered := s.nonces.get("first")
	memo := len(s.nonces.m)
	s.mu.Unlock()
	if remembered {
		t.Error("oldest nonce should have been evicted")
	}
	if memo > nonceCap {
		t.Errorf("nonce memo grew to %d, cap is %d", memo, nonceCap)
	}
}

// TestApplyDeltaNonceDedup pins the at-most-once contract of
// ApplyDelta: a retried apply whose first attempt landed returns the
// remembered DeltaInfo instead of applying the delta twice.
func TestApplyDeltaNonceDedup(t *testing.T) {
	ctx := context.Background()
	data := workload.EMPData()
	s := NewSite(0, data, relation.True())
	before, err := s.NumTuples()
	if err != nil {
		t.Fatal(err)
	}
	ins := append(relation.Tuple(nil), data.Tuple(0)...)
	d := relation.Delta{Inserts: []relation.Tuple{ins}}
	info1, err := s.ApplyDelta(ctx, d, "a1")
	if err != nil {
		t.Fatal(err)
	}
	info2, err := s.ApplyDelta(ctx, d, "a1") // retransmit
	if err != nil {
		t.Fatal(err)
	}
	if info1 != info2 {
		t.Errorf("retried apply returned %+v, want the remembered %+v", info2, info1)
	}
	if n, _ := s.NumTuples(); n != before+1 {
		t.Errorf("fragment has %d tuples, want %d — the retransmit must not apply twice", n, before+1)
	}
	info3, err := s.ApplyDelta(ctx, d, "a2") // a genuinely new delta
	if err != nil {
		t.Fatal(err)
	}
	if info3.Gen != info1.Gen+1 || info3.NumTuples != before+2 {
		t.Errorf("fresh nonce: got %+v, want gen %d with %d tuples", info3, info1.Gen+1, before+2)
	}
}
