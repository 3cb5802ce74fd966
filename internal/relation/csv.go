package relation

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV writes the relation as CSV with a header row of attribute
// names.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema().Attrs()); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	for _, t := range r.Tuples() {
		if err := cw.Write(t); err != nil {
			return fmt.Errorf("relation: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a CSV stream whose first row is a header of attribute
// names and returns the relation. name becomes the schema name; key
// lists key attributes (must appear in the header).
func ReadCSV(rd io.Reader, name string, key ...string) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	schema, err := NewSchema(name, header, key...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV row: %w", err)
		}
		if err := rel.Append(Tuple(rec)); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
