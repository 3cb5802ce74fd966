// Package remote runs detection over real sockets: each site is a
// net/rpc server (cmd/cfdsite) hosting a core.Site, and RemoteSite is
// the client-side core.SiteAPI proxy, so every algorithm in
// internal/core works unchanged across processes. Tuple shipments in
// this mode are relayed through the coordinator driver (source →
// driver → destination); the shipment metrics still count each tuple
// once, matching the paper's |M| accounting.
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
const WireVersion = 11

const serviceName = "SiteV11"

// WireRelation is the gob-encodable form of relation.Relation. It
// carries exactly one of three payloads: the row form (Tuples), the
// columnar dictionary-encoded form (Dicts + Cols + Rows) — per-column
// dictionaries with fixed-width ID vectors, which is what repetitive
// detection shipments compress well under — or the packed form
// (Packed). dist.ChooseWireForm picks whichever models smallest on the
// wire and dist.RelationBytes charges that size, so the shipment
// metrics match the shipped bytes.
type WireRelation struct {
	Name  string
	Attrs []string
	Key   []string
	// Row form: one string slice per tuple.
	Tuples [][]string
	// Columnar form: Dicts[j] lists column j's distinct values by ID,
	// Cols[j][i] is row i's ID in column j, Rows the tuple count.
	Dicts [][]string
	Cols  [][]uint32
	Rows  int
	// Packed form: dictionary sections and chunk payloads in the
	// colstore codec, shipped byte-for-byte.
	Packed *WirePackedRelation
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
// dist.ChooseWireForm names — the form dist.RelationBytes bills.
func ToWire(r *relation.Relation) *WireRelation {
	if r == nil {
		return nil
	}
	w := &WireRelation{Name: r.Schema().Name(), Attrs: r.Schema().Attrs(), Key: r.Schema().Key()}
	form, _ := dist.ChooseWireForm(r)
	if form == dist.PackedForm {
		// The packed wire form is the colstore codec byte for byte; a
		// payload in any other representation ships dict+ID.
		pr, _ := r.PackedPayload()
		if p, ok := pr.(*colstore.Packed); ok {
			w.Rows, w.Packed = r.Len(), packedToWire(p)
			return w
		}
		form = dist.ColumnForm
	}
	if form == dist.ColumnForm {
		w.Rows = r.Len()
		w.Dicts, w.Cols = r.Encoded().CompactColumns()
		return w
	}
	w.Tuples = make([][]string, r.Len())
	for i, t := range r.Tuples() {
		w.Tuples[i] = t
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
		pc := p.Column(j)
		out.Cols[j] = WirePackedColumn{Dict: pc.Dict, Chunks: pc.Chunks}
	}
	return out
}

// FromWire rebuilds the relation from any wire form. A packed payload
// is adopted as the relation's backing reader — columns stay in chunk
// form until (unless) something reads them; the detection kernel
// decodes each column it binds once. This is where peer bytes enter,
// on a site (Deposit) and on the driver (a relayed extract), and
// everything downstream decodes without an error channel inside
// handlers net/rpc does not recover — so every form is verified here,
// once: the packed form by colstore.NewPacked (dictionary sections,
// chunk structure, every ID inside its dictionary), the dict+ID form by
// relation.FromColumns. A malformed payload is a plain, non-transient
// error.
func FromWire(w *WireRelation) (*relation.Relation, error) {
	if w == nil {
		return nil, nil
	}
	schema, err := relation.NewSchema(w.Name, w.Attrs, w.Key...)
	if err != nil {
		return nil, fmt.Errorf("remote: rebuilding schema: %w", err)
	}
	if w.Packed != nil {
		cols := make([]colstore.PackedColumn, len(w.Packed.Cols))
		for j, c := range w.Packed.Cols {
			cols[j] = colstore.PackedColumn{Dict: c.Dict, Chunks: c.Chunks}
		}
		p, err := colstore.NewPacked(w.Packed.Rows, w.Packed.ChunkRows, cols)
		if err != nil {
			return nil, fmt.Errorf("remote: packed payload: %w", err)
		}
		rel, err := relation.FromPackedReader(schema, p)
		if err != nil {
			return nil, fmt.Errorf("remote: %w", err)
		}
		return rel, nil
	}
	if w.Cols != nil {
		// The receiver adopts the shipped dictionaries as the
		// relation's encoded view: the sender's interning survives the
		// hop and the coordinator's check never re-hashes the values.
		rel, err := relation.FromColumns(schema, w.Dicts, w.Cols, w.Rows)
		if err != nil {
			return nil, fmt.Errorf("remote: %w", err)
		}
		return rel, nil
	}
	rel := relation.NewWithCapacity(schema, len(w.Tuples))
	for _, t := range w.Tuples {
		if err := rel.Append(relation.Tuple(t)); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// WireDelta is the gob-encodable form of relation.Delta: the inserted
// rows travel as plain tuples (deltas are small — dictionary encoding
// them would ship the dictionaries too), deletes as pre-delta row
// indices, exactly the Delta contract.
type WireDelta struct {
	Inserts [][]string
	Deletes []int
}

// DeltaToWire converts a delta for transport.
func DeltaToWire(d relation.Delta) WireDelta {
	w := WireDelta{Deletes: d.Deletes}
	if len(d.Inserts) > 0 {
		w.Inserts = make([][]string, len(d.Inserts))
		for i, t := range d.Inserts {
			w.Inserts[i] = t
		}
	}
	return w
}

// DeltaFromWire rebuilds the delta.
func DeltaFromWire(w WireDelta) relation.Delta {
	d := relation.Delta{Deletes: w.Deletes}
	if len(w.Inserts) > 0 {
		d.Inserts = make([]relation.Tuple, len(w.Inserts))
		for i, t := range w.Inserts {
			d.Inserts[i] = t
		}
	}
	return d
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
