// Package exp is the experiment harness: one driver per experiment of
// Section VI, each regenerating the series of a Figure 3 panel. Time
// figures report the paper's modeled response time cost(D, Σ, M)
// (deterministic, machine-independent; see DESIGN.md); shipment
// figures report exact tuple counts. Sizes default to 1/10 of the
// paper's (the Scale knob restores them).
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Config parameterizes a harness run.
type Config struct {
	// Scale multiplies the paper's dataset sizes (default 0.1; 1.0
	// reproduces the full 800K/1.6M/2.7M-tuple runs).
	Scale float64
	// Seed drives data generation and uniform partitioning.
	Seed int64
	// ErrRate is the injected-inconsistency rate (default 0.01).
	ErrRate float64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.ErrRate == 0 {
		c.ErrRate = 0.01
	}
	return c
}

// Paper dataset sizes (tuples) at Scale = 1.0.
const (
	SizeCust8  = 800_000
	SizeCust16 = 1_600_000
	SizeXref8  = 800_000
	SizeXrefH  = 2_700_000
)

func (c Config) size(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 100 {
		n = 100
	}
	return n
}

// Series is one figure panel: an x-axis sweep with one column per
// algorithm/variant.
type Series struct {
	// Figure names the reproduced panel, e.g. "Fig 3(a)".
	Figure string
	// Title describes the experiment.
	Title string
	// XLabel and Unit label the axes.
	XLabel string
	Unit   string
	// Columns are the plotted lines.
	Columns []string
	// XS are the x values; Rows[i][j] is column j at XS[i].
	XS   []float64
	Rows [][]float64
}

// Print renders the series as an aligned text table.
func (s *Series) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", s.Figure, s.Title)
	fmt.Fprintf(w, "  unit: %s\n", s.Unit)
	header := fmt.Sprintf("  %-14s", s.XLabel)
	for _, c := range s.Columns {
		header += fmt.Sprintf(" %16s", c)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, "  "+strings.Repeat("-", len(header)-2))
	for i, x := range s.XS {
		row := fmt.Sprintf("  %-14.4g", x)
		for _, v := range s.Rows[i] {
			row += fmt.Sprintf(" %16.4f", v)
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w)
}

// WriteCSV emits the series as CSV (x column first) for external
// plotting tools.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{s.XLabel}, s.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, x := range s.XS {
		row := make([]string, 0, len(s.Columns)+1)
		row = append(row, strconv.FormatFloat(x, 'g', -1, 64))
		for _, v := range s.Rows[i] {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
