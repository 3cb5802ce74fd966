package core

import (
	"fmt"

	"distcfd/internal/cfd"
)

// Compile-time Σ analysis (Fan et al., TODS 2008, via cfd.AnalyzeSigma):
// CompileSet can reject an inconsistent rule set before a single tuple
// ships. The plan compiles and runs Σ exactly as given — a duplicate
// CFD is listed in the report for the user to delete from the rule
// file, not collapsed behind their back (clustered plans, the default,
// already share the σ work across a duplicate group).

// SigmaMode selects the compile-time Σ analysis level.
type SigmaMode int

const (
	// SigmaOff compiles Σ as given (the default).
	SigmaOff SigmaMode = iota
	// SigmaCheck runs the static analysis: CompileSet fails fast with
	// a witness-bearing *cfd.InconsistentError when Σ is inconsistent,
	// and the full report (implied units, irreducible cover, duplicate
	// groups) is retained on the plan for inspection.
	SigmaCheck
)

func (m SigmaMode) String() string {
	switch m {
	case SigmaOff:
		return "SigmaOff"
	case SigmaCheck:
		return "SigmaCheck"
	default:
		return fmt.Sprintf("SigmaMode(%d)", int(m))
	}
}

// analyzeSigma runs the Σ analysis per mode and returns the report
// (nil under SigmaOff).
func analyzeSigma(cfds []*cfd.CFD, mode SigmaMode) (*cfd.SigmaReport, error) {
	if mode == SigmaOff {
		return nil, nil
	}
	report := cfd.AnalyzeSigma(cfds)
	if report.Witness != nil {
		return nil, &cfd.InconsistentError{Witness: report.Witness}
	}
	return report, nil
}
