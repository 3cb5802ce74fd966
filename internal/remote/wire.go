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
const WireVersion = 14

const serviceName = "SiteV14"

// WireRelation is the gob-encodable form of relation.Relation. It
// carries at most one of three payloads: the row form (Tuples), the
// columnar dictionary-encoded form (Dicts + Cols) — per-column
// dictionaries with fixed-width ID vectors, which is what repetitive
// detection shipments compress well under — or the packed form
// (Packed); none at all is zero rows. dist.ChooseWireForm picks
// whichever models smallest on the wire and dist.RelationBytes charges
// that size, so the shipment metrics match the shipped bytes. Values
// travel in colstore values sections, each decoded in a fixed number of
// allocations however many values it holds.
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
			w.Rows, w.Packed, w.Counts = r.Len(), packedToWire(p), p.CountSection()
			return w
		}
		form = dist.ColumnForm
	}
	if r.Counts() != nil {
		w.Counts = colstore.EncodeCounts(r.Counts())
	}
	if w.Rows = r.Len(); form == dist.ColumnForm {
		w.Dicts, w.Cols = relation.Compact(r.Encoded(), func(n int, val func(uint32) string) []byte { return colstore.AppendValues(nil, n, val) })
	} else if w.Rows > 0 {
		w.Tuples = colstore.EncodeRowSection(nil, r.Tuples())
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

// FromWire rebuilds the relation from any wire form. A packed payload
// is adopted as the relation's backing reader — columns stay in chunk
// form until (unless) something reads them; the detection kernel
// decodes each column it binds once. This is where peer bytes enter,
// on a site (Deposit) and on the driver (a relayed extract), and
// everything downstream decodes without an error channel inside
// handlers net/rpc does not recover — so every form is verified here,
// once: the packed form by colstore.NewPacked (dictionary sections,
// chunk structure, every ID inside its dictionary), the values
// sections by colstore.DecodeDictSection and DecodeDict, the dict+ID
// form's IDs by relation.FromDicts, the row form's arity by
// relation.FromTuples, a count column by colstore.DecodeCounts (a
// nonzero count a row, their sum at most relation.MaxBag). A payload
// setting more than one form, or a malformed one, is a plain,
// non-transient error. A shape received before reuses its schema
// (relation.InternSchema).
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
	var rel *relation.Relation
	switch {
	case w.Packed != nil:
		cols := make([]colstore.PackedColumn, len(w.Packed.Cols))
		for j, c := range w.Packed.Cols {
			cols[j] = colstore.PackedColumn(c)
		}
		var p *colstore.Packed
		if p, err = colstore.NewPacked(w.Packed.Rows, w.Packed.ChunkRows, cols); err == nil && w.Counts != nil {
			err = p.SetCounts(w.Counts)
		}
		if err == nil {
			rel, err = relation.FromPackedReader(schema, p)
		}
	case columnar:
		// The receiver adopts the shipped dictionaries as the
		// relation's encoded view: the sender's interning survives the
		// hop and the coordinator's check never re-hashes the values.
		var dicts []*relation.Dict
		if dicts, err = colstore.DecodeDicts(w.Dicts); err == nil {
			rel, err = relation.FromDicts(schema, dicts, w.Cols, w.Rows)
		}
	default:
		var ts []relation.Tuple
		if ts, err = colstore.DecodeRowSection(w.Tuples, w.Rows); err == nil {
			rel, err = relation.FromTuples(schema, ts)
		}
	}
	if err == nil && w.Packed == nil && w.Counts != nil {
		var counts []uint32
		if counts, err = colstore.DecodeCounts(w.Counts, rel.Len()); err == nil {
			err = rel.SetCounts(counts)
		}
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
