// Package remote runs detection over real sockets: each site is a
// net/rpc server (cmd/cfdsite) hosting a core.Site, and RemoteSite is
// the client-side core.SiteAPI proxy, so every algorithm in
// internal/core works unchanged across processes. Tuple shipments in
// this mode are relayed through the coordinator driver (source →
// driver → destination), which forwards each block as it arrived,
// decoding none; the shipment metrics still count each tuple once,
// matching the paper's |M| accounting.
package remote

import (
	"fmt"

	"distcfd/internal/colstore"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// WireVersion is the wire-protocol version, checked at the Dial
// handshake. Gob silently drops fields the peer does not know, so a
// version skew would not error on its own — it would decode columnar
// payloads as empty relations and lose violations. There is one
// protocol level: the rpc service name carries the version too, so skew
// in either direction dies on the first call with a can't-find-service
// error — an old driver against a new site (which the InfoReply check
// alone could never catch: that check runs in the new driver) and a new
// driver against an old site both fail loudly, once. One version plus
// wire.golden is the whole compatibility story.
const WireVersion = 14

const serviceName = "SiteV14"

// WireRelation is the gob-encodable form of relation.Relation. It
// carries at most one of three payloads: the row form (Tuples), the
// columnar dictionary-encoded form (Dicts + Cols) — per-column
// dictionaries with fixed-width ID vectors, which is what repetitive
// detection shipments compress well under — or the packed form
// (Packed); none at all is zero rows. The sender ships whichever models
// smallest, the receiver keeps it as it came, and dist.RelationBytes
// charges that form's size, so the shipment metrics match the shipped
// bytes. Values travel in colstore values sections.
type WireRelation struct {
	Name  string
	Attrs []string
	Key   []string
	// Row form: Rows tuples' values, row-major, in one section.
	Tuples []byte
	// Columnar form: Dicts[j] is the section of column j's distinct
	// values in ID order, Cols[j][i] row i's ID in column j.
	Dicts [][]byte
	Cols  [][]uint32
	Rows  int
	// Packed form: dictionary sections and chunk payloads in the
	// colstore codec, shipped byte-for-byte.
	Packed *WirePackedRelation
	// Counts is a counted relation's count column in any form
	// (colstore.EncodeCounts); nil for a plain relation.
	Counts []byte
}

// WirePackedRelation is the packed payload of a WireRelation.
type WirePackedRelation struct {
	Rows      int
	ChunkRows int
	Cols      []WirePackedColumn
}

// WirePackedColumn carries one column: its dictionary section (the
// colstore uvarint-framed value list) and its chunk payloads (the
// colstore chunk codec), which the receiver verifies against that
// dictionary (colstore.NewPacked).
type WirePackedColumn struct {
	Dict   []byte
	Chunks [][]byte
}

// ToWire converts a relation for transport in the form
// dist.ChooseWireForm names — the form dist.RelationBytes bills: a
// received one as it arrived, its sections unchanged, any other priced
// by the pass that compacts it (relation.Compaction).
func ToWire(r *relation.Relation) *WireRelation {
	if r == nil {
		return nil
	}
	w := &WireRelation{Name: r.Schema().Name(), Attrs: r.Schema().Attrs(), Key: r.Schema().Key(), Rows: r.Len()}
	if p, ok := r.Received().(*colstore.Sections); ok {
		w.Tuples, w.Dicts, w.Cols = p.Parts()
		w.Counts = p.CountSection()
		return w
	}
	// The packed wire form is the colstore codec byte for byte; a
	// payload in any other representation ships dict+ID or rows.
	if pr, _ := r.PackedPayload(); pr != nil {
		if form, _ := dist.ChooseWireForm(r); form == dist.PackedForm {
			if p, ok := pr.(*colstore.Packed); ok {
				w.Packed, w.Counts = packedToWire(p), p.CountSection()
				return w
			}
		}
	}
	if r.Counts() != nil {
		w.Counts = colstore.EncodeCounts(r.Counts())
	}
	c := r.Encoded().Compact(r.Counts())
	defer c.Release()
	if form, _ := dist.Smallest(c.Sizes()); form == dist.ColumnForm {
		w.Cols = c.Cols()
		w.Dicts = make([][]byte, len(w.Cols))
		for j := range w.Dicts {
			n, val := c.Dict(j)
			w.Dicts[j] = colstore.AppendValues(nil, n, val)
		}
	} else if w.Rows > 0 {
		w.Tuples = colstore.EncodeRows(nil, w.Rows, r.Schema().Arity(), c.Value)
	}
	return w
}

func packedToWire(p *colstore.Packed) *WirePackedRelation {
	out := &WirePackedRelation{
		Rows:      p.Rows(),
		ChunkRows: p.ChunkRows(),
		Cols:      make([]WirePackedColumn, p.NumColumns()),
	}
	for j := range out.Cols {
		out.Cols[j] = WirePackedColumn(p.Column(j))
	}
	return out
}

// FromWire adopts a relation in the wire form it arrived in, its bytes
// kept as its storage (relation.FromReceived) and decoded only where
// something reads a column, so a relay forwards them (ToWire) and bills
// them (dist.ChooseWireForm) undecoded. Peer bytes enter here, on a
// site (Deposit) and on the driver (a relayed extract), and nothing
// downstream has an error channel inside handlers net/rpc does not
// recover — so every form is verified here, once, in O(bytes):
// colstore.NewPacked, NewDicts and NewRows check their sections, and
// SetCounts a count column. A payload setting more than one form, or a
// malformed one, is a plain, non-transient error. A shape received
// before reuses its schema (relation.InternSchema).
func FromWire(w *WireRelation) (*relation.Relation, error) {
	if w == nil {
		return nil, nil
	}
	schema, err := relation.InternSchema(w.Name, w.Attrs, w.Key...)
	if err != nil {
		return nil, fmt.Errorf("remote: rebuilding schema: %w", err)
	}
	columnar := w.Dicts != nil || w.Cols != nil
	if w.Packed != nil && (w.Tuples != nil || columnar) || w.Tuples != nil && columnar {
		return nil, fmt.Errorf("remote: payload sets more than one wire form")
	}
	var p interface {
		relation.Payload
		SetCounts([]byte) error
	}
	switch {
	case w.Packed != nil:
		cols := make([]colstore.PackedColumn, len(w.Packed.Cols))
		for j, c := range w.Packed.Cols {
			cols[j] = colstore.PackedColumn(c)
		}
		p, err = colstore.NewPacked(w.Packed.Rows, w.Packed.ChunkRows, cols)
	case columnar:
		p, err = colstore.NewDicts(w.Dicts, w.Cols, w.Rows)
	default:
		p, err = colstore.NewRows(w.Tuples, w.Rows, schema.Arity())
	}
	if err == nil && w.Counts != nil {
		err = p.SetCounts(w.Counts)
	}
	var rel *relation.Relation
	if err == nil {
		rel, err = relation.FromReceived(schema, p)
	}
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return rel, nil
}

// WireDelta is the gob-encodable form of relation.Delta: the Rows
// inserted tuples travel in one row section, deletes as pre-delta row
// indices, exactly the Delta contract.
type WireDelta struct {
	Inserts []byte
	Rows    int
	Deletes []int
}

// DeltaToWire converts a delta for transport.
func DeltaToWire(d relation.Delta) WireDelta {
	w := WireDelta{Rows: len(d.Inserts), Deletes: d.Deletes}
	if w.Rows > 0 {
		w.Inserts = colstore.EncodeRowSection(nil, d.Inserts)
	}
	return w
}

// DeltaFromWire rebuilds the delta; a malformed insert section is an
// error, and the inserts' arity is the applying site's to check.
func DeltaFromWire(w WireDelta) (relation.Delta, error) {
	ins, err := colstore.DecodeRowSection(w.Inserts, w.Rows)
	return relation.Delta{Inserts: ins, Deletes: w.Deletes}, err
}

// WireSchema is the gob-encodable form of relation.Schema.
type WireSchema struct {
	Name  string
	Attrs []string
	Key   []string
}

// SchemaToWire converts a schema for transport.
func SchemaToWire(s *relation.Schema) *WireSchema {
	return &WireSchema{Name: s.Name(), Attrs: s.Attrs(), Key: s.Key()}
}

// SchemaFromWire rebuilds the schema.
func SchemaFromWire(w *WireSchema) (*relation.Schema, error) {
	return relation.NewSchema(w.Name, w.Attrs, w.Key...)
}
