package relation

import "fmt"

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
	// PayloadSizes returns the integers Relation.PayloadSizes returns
	// for the same rows and counts: the row form's size and the dict+ID
	// form's.
	PayloadSizes() (raw, encoded int64, err error)
	// Counts returns the payload's count column — row i stands for
	// Counts()[i] tuples (counted.go) — or nil for a plain payload.
	Counts() []uint32
	// CountSum returns the counts' sum, 0 for a plain payload.
	CountSum() int
}

// packedState is a relation's packed payload, which is also its row
// storage: the encoded view decodes columns from it on demand, and the
// detect kernel and Merge read it through its error channel. adopted
// marks a payload received off the wire (FromPackedReader), which ships
// onward as it came; one a site packed from its own storage at
// extraction (FromPackedExtract) still competes with the other two
// forms (dist.ChooseWireForm).
type packedState struct {
	pr      PackedColumnReader
	adopted bool
}

// PackedPayload returns the packed payload r ships as, and whether it
// was adopted off the wire; nil when r has none — the common case for
// in-memory relations, and for any relation after DropPacked — and
// shippers then fall back to the row or dict+ID wire form.
func (r *Relation) PackedPayload() (pr PackedColumnReader, adopted bool) {
	if ps := r.packed.Load(); ps != nil {
		return ps.pr, ps.adopted
	}
	return nil, false
}

// DropPacked stops r shipping packed, forcing every downstream shipper
// and accountant back onto the row or dict+ID form. The payload stays
// r's storage: its encoded view decodes from it as before, and a
// counted r keeps its counts. It is the
// Options.NoPackedShip hook and the explicit form of what mutation does
// implicitly.
func (r *Relation) DropPacked() {
	r.packed.Store(nil)
}

// BackingReader returns the packed reader that stores r's rows, or nil
// when r's rows live as tuples or materialized columns, or after
// DropPacked. Only relations built by FromPackedReader or
// FromPackedExtract have one; the detect kernel and Merge decode the
// columns they read through it, where a corrupt chunk is an error
// rather than Column materialization's panic.
func (r *Relation) BackingReader() ColumnReader {
	if ps := r.packed.Load(); ps != nil {
		return ps.pr
	}
	return nil
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
	return fromPacked(s, pr, true)
}

// FromPackedExtract is FromPackedReader for a payload a site packed
// from its own storage at extraction — the sender's side. Its storage
// is the same; it differs in shipping, where it is priced in all three
// wire forms rather than passed on packed.
func FromPackedExtract(s *Schema, pr PackedColumnReader) (*Relation, error) {
	return fromPacked(s, pr, false)
}

func fromPacked(s *Schema, pr PackedColumnReader, adopted bool) (*Relation, error) {
	if pr.NumColumns() != s.Arity() {
		return nil, fmt.Errorf("relation: packed payload has %d columns, schema %s wants %d",
			pr.NumColumns(), s.Name(), s.Arity())
	}
	out, enc := lazyView(s, pr.Rows())
	enc.reader = pr
	out.packed.Store(&packedState{pr: pr, adopted: adopted})
	return out, nil
}
