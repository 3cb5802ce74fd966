package relation

import (
	"fmt"
	"sync"
)

// PackedColumnReader is the packed-column seam: a ColumnReader whose
// storage is chunks of raw encoded bytes (the colstore chunk codec), so
// shippers put the stored form on the wire verbatim, a store-backed
// site gathers rows chunk by chunk, and receivers keep a payload as a
// relation's storage without materializing it. Chunk boundaries are
// uniform across columns (one chunking for the whole relation).
// PackedSize is the payload's modeled wire size; it is what the
// shipment accounting charges when packed shipping beats the dict+ID
// form. PayloadSizes prices the payload's rows in the other two forms,
// so a relation carrying one is priced without walking its cells
// (dist.ChooseWireForm).
type PackedColumnReader interface {
	ColumnReader
	// ColumnChunks returns the chunk count of column i.
	ColumnChunks(i int) (int, error)
	// ChunkSpan returns the row range [lo, hi) chunk k covers.
	ChunkSpan(i, k int) (lo, hi int)
	// PackedSize returns the payload's modeled wire size.
	PackedSize() int64
	// PayloadSizes returns the integers Encoded.PayloadSizes returns
	// for the same rows: the row form's size and the dict+ID form's.
	PayloadSizes() (raw, encoded int64, err error)
}

// packedState carries a relation's packed-payload attachment: either
// a lazily-invoked provider (sender side — a store-backed extract
// that can produce its packed form on demand) or an already-built
// reader that IS the relation's storage (receiver side — a payload
// adopted off the wire).
type packedState struct {
	mu       sync.Mutex
	provider func() (PackedColumnReader, error)
	pr       PackedColumnReader
	err      error
	done     bool
	// backing marks a relation whose row storage is the packed reader
	// itself (FromPackedReader): the encoded view decodes columns from
	// it on demand, and the detect kernel reads it through its error
	// channel.
	backing bool
}

// SetPackedProvider attaches a deferred packed-payload builder to r:
// fn runs at most once, on the first PackedPayload call, so a block
// that is extracted but detected locally never pays for packing. Any
// mutation of r detaches the provider (see invalidateEncoding).
func (r *Relation) SetPackedProvider(fn func() (PackedColumnReader, error)) {
	r.packed.Store(&packedState{provider: fn})
}

// PackedPayload returns the relation's packed payload, invoking the
// attached provider on first call (the result, or its error, is
// cached). It returns (nil, nil) when no packed form is attached —
// the common case for in-memory relations — and shippers then fall
// back to the dict+ID wire form.
func (r *Relation) PackedPayload() (PackedColumnReader, error) {
	ps := r.packed.Load()
	if ps == nil {
		return nil, nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if !ps.done {
		ps.pr, ps.err = ps.provider()
		ps.provider = nil
		ps.done = true
	}
	return ps.pr, ps.err
}

// DropPacked detaches any packed payload or provider, forcing every
// downstream shipper and accountant back onto the row or dict+ID form.
// It is the Options.NoPackedShip hook and the explicit form of what
// mutation does implicitly.
func (r *Relation) DropPacked() {
	r.packed.Store(nil)
}

// BackingReader returns the packed reader that stores r's rows, or
// nil when r's rows live as tuples or materialized columns. Only
// relations built by FromPackedReader have one; the detect kernel
// decodes the columns it reads through it, where a corrupt chunk is an
// error rather than Column materialization's panic.
func (r *Relation) BackingReader() ColumnReader {
	ps := r.packed.Load()
	if ps == nil || !ps.backing {
		return nil
	}
	return ps.pr
}

// FromPackedReader adopts a packed payload as a relation's storage —
// the wire's packed receive path. The result is doubly lazy: columns decode
// from the payload's chunks only when a consumer leaves the reader
// seam, and tuples materialize only if something leaves ID space.
// Only the arity is checked here: pr is trusted as storage, so a chunk
// that fails to decode later surfaces as an error (the kernel's reads)
// or a panic (Column materialization, mirroring ColumnDict's posture on
// storage corruption). Whoever adopts bytes it did not write verifies
// them first — colstore.NewPacked does, for the wire.
func FromPackedReader(s *Schema, pr PackedColumnReader) (*Relation, error) {
	if pr.NumColumns() != s.Arity() {
		return nil, fmt.Errorf("relation: packed payload has %d columns, schema %s wants %d",
			pr.NumColumns(), s.Name(), s.Arity())
	}
	out, enc := lazyView(s, pr.Rows())
	enc.reader = pr
	out.packed.Store(&packedState{pr: pr, done: true, backing: true})
	return out, nil
}
