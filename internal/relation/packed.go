package relation

import "fmt"

// Payload is a relation's storage as something other than tuples: a
// ColumnReader with the count column of a counted bag (counted.go) —
// row i stands for Counts()[i] tuples — or none for a plain one. A
// payload received off the wire is one in any of the three wire forms
// (colstore.Packed, colstore.Sections), adopted as it arrived
// (FromReceived); so is a block a store site packed at extraction.
type Payload interface {
	ColumnReader
	// Counts returns the count column, nil for a plain payload.
	Counts() []uint32
	// CountSum returns the counts' sum, 0 for a plain payload.
	CountSum() int
}

// SectionPayload is a payload kept as the wire sections it arrived in,
// the row or dict+ID form (colstore.Sections). Its values are read in
// place: materializing the relation it stores decodes a row-form
// payload's tuples straight from it (Tuples), and a Merge interns each
// value of its columns (ColumnValues) once into the merged dictionary,
// building no dictionary or tuple of the part's own.
type SectionPayload interface {
	Payload
	// InRows reports whether the payload is in the row form.
	InRows() bool
	// Tuples returns a row-form payload's rows.
	Tuples() []Tuple
	// ColumnValues hands to column j's values as the payload holds
	// them: in the row form each row's, k the row; in the dict+ID form
	// each dictionary value, k its ID.
	ColumnValues(j int, to ValueSink)
}

// ValueSink takes the values a SectionPayload reads out in place: value
// k, v valid only during the call.
type ValueSink interface {
	Value(k int, v []byte)
}

// sectionPayload returns the section payload storing r's rows, or nil.
func (r *Relation) sectionPayload() SectionPayload {
	if e := r.enc.Load(); e != nil {
		if sp, ok := e.reader.(SectionPayload); ok {
			return sp
		}
	}
	return nil
}

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
	Payload
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
}

// packedState is a relation's payload, which is also its row storage:
// the encoded view decodes columns from it on demand, and the detect
// kernel and Merge read it through its error channel. adopted marks a
// payload received off the wire (FromReceived), which ships onward as
// it came, in its own form and billed that form's size; one a site
// packed from its own storage at extraction (FromPackedExtract) still
// competes with the other two forms (dist.ChooseWireForm).
type packedState struct {
	pr      Payload
	adopted bool
}

// PackedPayload returns the packed payload r ships as, and whether it
// was adopted off the wire; nil when r has none — the common case for
// in-memory relations, for a payload received in the row or dict+ID
// form, and for any relation after DropPacked — and shippers then fall
// back to the row or dict+ID wire form.
func (r *Relation) PackedPayload() (pr PackedColumnReader, adopted bool) {
	if ps := r.packed.Load(); ps != nil {
		pr, _ = ps.pr.(PackedColumnReader)
		return pr, pr != nil && ps.adopted
	}
	return nil, false
}

// Received returns the payload r was adopted from off the wire
// (FromReceived), in whichever form it arrived, or nil.
func (r *Relation) Received() Payload {
	if ps := r.packed.Load(); ps != nil && ps.adopted {
		return ps.pr
	}
	return nil
}

// DropPacked stops r shipping packed, forcing every downstream shipper
// and accountant back onto the row or dict+ID form; a payload received
// in one of those forms keeps shipping as it came. The payload stays
// r's storage: its encoded view decodes from it as before, and a
// counted r keeps its counts. It is the
// Options.NoPackedShip hook and the explicit form of what mutation does
// implicitly.
func (r *Relation) DropPacked() {
	if ps := r.packed.Load(); ps != nil {
		if _, packed := ps.pr.(PackedColumnReader); packed {
			r.packed.Store(nil)
		}
	}
}

// BackingReader returns the payload that stores r's rows, or nil when
// r's rows live as tuples or materialized columns, or after
// DropPacked. Only relations built by FromReceived or
// FromPackedExtract have one; the detect kernel and Merge decode the
// columns they read through it, where a corrupt chunk is an error
// rather than Column materialization's panic.
func (r *Relation) BackingReader() ColumnReader {
	if ps := r.packed.Load(); ps != nil {
		return ps.pr
	}
	return nil
}

// FromReceived adopts a payload received off the wire, in any wire
// form, as a relation's storage. The result is doubly lazy: columns
// decode from the payload only when a consumer leaves the reader seam,
// and tuples materialize only if something leaves ID space; a relay
// that only forwards and bills it decodes nothing. Only the arity is
// checked here: p is trusted as storage, so a column that fails to
// decode later surfaces as an error (the kernel's reads) or a panic
// (Column materialization, mirroring ColumnDict's posture on storage
// corruption). Whoever adopts bytes it did not write verifies them
// first — colstore.NewPacked, NewRows and NewDicts do, for the wire.
func FromReceived(s *Schema, p Payload) (*Relation, error) {
	return fromPacked(s, p, true)
}

// FromPackedReader is FromReceived for a packed payload.
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

func fromPacked(s *Schema, pr Payload, adopted bool) (*Relation, error) {
	if pr.NumColumns() != s.Arity() {
		return nil, fmt.Errorf("relation: packed payload has %d columns, schema %s wants %d",
			pr.NumColumns(), s.Name(), s.Arity())
	}
	out, enc := lazyView(s, pr.Rows())
	enc.reader = pr
	out.packed.Store(&packedState{pr: pr, adopted: adopted})
	return out, nil
}
