package crypto

import (
	"fmt"
	"strings"

	"pitchfork/internal/core"
	"pitchfork/internal/ct"
	"pitchfork/internal/pitchfork"
)

// Finding is one cell of Table 2.
type Finding uint8

const (
	// Clean: no SCT violation found, with both phases fully explored.
	Clean Finding = iota
	// Flagged: violation found without forwarding-hazard detection
	// (the paper's plain checkmark).
	Flagged
	// FlaggedFwd: violation found only with forwarding-hazard
	// detection (the paper's "f").
	FlaggedFwd
	// Inconclusive: no violation found, but a phase gave up (state
	// budget exhausted or interrupted), so the build is not shown
	// clean.
	Inconclusive
)

// String renders the cell in the paper's notation.
func (f Finding) String() string {
	switch f {
	case Flagged:
		return "✓"
	case FlaggedFwd:
		return "f"
	case Inconclusive:
		return "?"
	default:
		return "–"
	}
}

// Row is one Table 2 line.
type Row struct {
	Case  string
	C     Finding
	FaCT  Finding
	Notes string
}

// Options tune the Table 2 reproduction. The phase bounds are the
// paper's §4.2.1 procedure bounds (250 without hazard detection, 20
// with); MaxStates is each phase's state budget (0 = the engine
// default).
type Options struct {
	MaxStates int
}

// Analyze runs the paper's two-phase procedure on one build and folds
// the two reports into a Table 2 cell. A violation found by either
// phase flags the cell; Clean requires both phases to finish without
// truncation or interruption, and anything short of that is
// Inconclusive.
func Analyze(c Case, mode ct.Mode, opts Options) (Finding, error) {
	comp, err := c.Build(mode)
	if err != nil {
		return Clean, err
	}
	mk := func() *core.Machine { return core.New(comp.Prog) }
	p1, p2, err := pitchfork.AnalyzeProcedure(mk, pitchfork.Options{
		MaxStates:   opts.MaxStates,
		StopAtFirst: true,
	})
	switch {
	case err != nil:
		return Clean, err
	case !p1.SecretFree():
		return Flagged, nil
	case !p2.SecretFree():
		return FlaggedFwd, nil
	case p1.Truncated || p1.Interrupted || p2.Truncated || p2.Interrupted:
		return Inconclusive, nil
	}
	return Clean, nil
}

// Table2 regenerates the full table: every case study under both
// toolchains.
func Table2(opts Options) ([]Row, error) {
	var rows []Row
	for _, c := range Cases() {
		fc, err := Analyze(c, ct.ModeC, opts)
		if err != nil {
			return nil, err
		}
		ff, err := Analyze(c, ct.ModeFaCT, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Case: c.Name, C: fc, FaCT: ff})
	}
	return rows, nil
}

// Render formats the rows like the paper's Table 2.
func Render(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-5s %-5s\n", "Case Study", "C", "FaCT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-5s %-5s\n", r.Case, r.C, r.FaCT)
	}
	return b.String()
}
