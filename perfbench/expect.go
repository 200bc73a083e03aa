package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"pitchfork/internal/pitchfork"
	"pitchfork/spectre"
)

// Verdicts, as written in expected.json.
const (
	vClean    = "clean"
	vLeak     = "leak"
	vLeakFwd  = "leak-fwd" // flagged only by the hazard-aware phase 2
	vRepaired = "repaired"
	// vUndecided is never expected: it is what a check yields when the
	// run was truncated, interrupted, or the repair was inconclusive.
	vUndecided = "undecided"
)

// Check outcomes.
const (
	outCorrect   = "correct"
	outUndecided = "undecided"
	outWrong     = "wrong"
	outError     = "error"
)

//go:embed expected.json
var expectedJSON []byte

// expectedTable2 and expectedProgram read expected.json; the reason
// each entry carries there is for readers only.
type expectedTable2 struct {
	Case string `json:"case"`
	C    string `json:"c"`
	FaCT string `json:"fact"`
}

type expectedProgram struct {
	Name      string `json:"name"`
	Procedure string `json:"procedure"`
	Symbolic  string `json:"symbolic"`
	Concrete  string `json:"concrete"`
	Repair    string `json:"repair"`
}

type expectations struct {
	Table2   []expectedTable2  `json:"table2"`
	Programs []expectedProgram `json:"programs"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

func (e *expectations) table2(name string) (expectedTable2, error) {
	for _, t := range e.Table2 {
		if t.Case == name {
			return t, nil
		}
	}
	return expectedTable2{}, fmt.Errorf("expected.json: no Table 2 row for %q", name)
}

func (e *expectations) program(name string) (expectedProgram, error) {
	for _, p := range e.Programs {
		if p.Name == name {
			return p, nil
		}
	}
	return expectedProgram{}, fmt.Errorf("expected.json: no entry for program %q", name)
}

// classify compares a check's verdict with its known answer.
func classify(got, want string, err error) string {
	switch {
	case err != nil:
		return outError
	case got == vUndecided:
		return outUndecided
	case got == want:
		return outCorrect
	default:
		return outWrong
	}
}

// runVerdict reads one exploration: a truncated or interrupted run is
// undecided whatever it found, never clean.
func runVerdict(truncated, interrupted, secretFree bool) string {
	switch {
	case truncated || interrupted:
		return vUndecided
	case secretFree:
		return vClean
	default:
		return vLeak
	}
}

func reportVerdict(r *spectre.Report) string {
	return runVerdict(r.Truncated, r.Interrupted, r.SecretFree)
}

func internalVerdict(r pitchfork.Report) string {
	return runVerdict(r.Truncated, r.Interrupted, r.SecretFree())
}

// phasesVerdict folds the two phases of the §4.2.1 procedure: a phase-1
// leak is "leak", a phase-2-only leak "leak-fwd", two clean phases
// "clean". An undecided phase 1, or an undecided phase 2 after a clean
// phase 1, leaves the procedure undecided.
func phasesVerdict(p1 string, p2 func() string) string {
	if p1 != vClean {
		return p1
	}
	switch v := p2(); v {
	case vLeak:
		return vLeakFwd
	default:
		return v
	}
}

func procedureVerdict(pr *spectre.ProcedureReport) string {
	if pr == nil || pr.Phase1 == nil {
		return vUndecided
	}
	return phasesVerdict(reportVerdict(pr.Phase1), func() string {
		if pr.Phase2 == nil {
			return vUndecided
		}
		return reportVerdict(pr.Phase2)
	})
}

// repairVerdict reads a repair: an outcome the engine reached is its
// verdict; a failed repair whose baseline or final verification was
// cut short is undecided; any other failure is an error.
func repairVerdict(res *spectre.RepairResult, err error) (string, error) {
	if res == nil {
		return "", err
	}
	if res.Outcome == spectre.RepairFailed {
		for _, r := range []*spectre.Report{res.Before, res.After} {
			if r != nil && (r.Truncated || r.Interrupted) {
				return vUndecided, nil
			}
		}
		if err == nil {
			err = fmt.Errorf("repair failed without an error")
		}
		return "", err
	}
	return res.Outcome, err
}
