package spectre

import (
	"fmt"
	"strings"

	"pitchfork/internal/core"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
)

// Observation is one externally visible event of the speculative
// semantics, in the stable wire schema. Addr is meaningful for "read",
// "fwd", and "write" observations; Target for "jump"; "rollback"
// carries neither. Secret reports whether the event's label is above
// public — i.e. whether this event leaks secret-influenced data.
type Observation struct {
	Kind   string `json:"kind"` // "read" | "fwd" | "write" | "jump" | "rollback"
	Addr   Word   `json:"addr"`
	Target Addr   `json:"target"`
	Secret bool   `json:"secret"`
}

// Observation kind strings of the wire schema, matching the paper's
// observation syntax.
const (
	ObsRead     = "read"
	ObsFwd      = "fwd"
	ObsWrite    = "write"
	ObsJump     = "jump"
	ObsRollback = "rollback"
)

// String renders the observation in the paper's syntax, e.g.
// "read 72sec".
func (o Observation) String() string {
	label := "pub"
	if o.Secret {
		label = "sec"
	}
	switch o.Kind {
	case ObsJump:
		return fmt.Sprintf("jump %d%s", o.Target, label)
	case ObsRollback:
		return "rollback"
	default:
		return fmt.Sprintf("%s %d%s", o.Kind, o.Addr, label)
	}
}

// Trace is an observation sequence.
type Trace []Observation

// SecretFree reports whether no observation in the trace is
// secret-labeled.
func (t Trace) SecretFree() bool {
	for _, o := range t {
		if o.Secret {
			return false
		}
	}
	return true
}

// String renders the trace as "o1; o2; …".
func (t Trace) String() string {
	parts := make([]string, len(t))
	for i, o := range t {
		parts[i] = o.String()
	}
	return strings.Join(parts, "; ")
}

// Spectre variant identifiers used in Finding.Variant. They mirror the
// detector's heuristic classification of a violation's
// microarchitectural cause.
const (
	VariantV1      = "spectre-v1"
	VariantV11     = "spectre-v1.1"
	VariantV4      = "spectre-v4"
	VariantSeq     = "sequential-ct-violation"
	VariantUnknown = "unclassified"
)

// Speculation-source kind strings used in SpecSource.Kind.
const (
	SourceBranch = "branch"
	SourceStore  = "store"
	SourceReturn = "return"
)

// SpecSource names one speculation primitive that was still
// unresolved when the leak was detected: the guard the leaking
// instruction raced ahead of. Kind is one of the Source* constants;
// PC the guarding instruction's program point. Fence repair anchors
// its insertions here.
type SpecSource struct {
	Kind string `json:"kind"`
	PC   Addr   `json:"pc"`
}

// String renders the source, e.g. "branch@4".
func (s SpecSource) String() string { return fmt.Sprintf("%s@%d", s.Kind, s.PC) }

// Finding is one detected SCT violation in the stable wire schema.
type Finding struct {
	// Variant is the heuristic Spectre-variant classification (one of
	// the Variant* constants).
	Variant string `json:"variant"`
	// PC is the program point of the machine when the leak was flagged.
	PC Addr `json:"pc"`
	// Sources are the speculation primitives guarding the leak, oldest
	// first (empty for sequential violations, whose guard has retired).
	Sources []SpecSource `json:"sources,omitempty"`
	// Observation is the secret-labeled observation that constitutes
	// the leak.
	Observation Observation `json:"observation"`
	// Trace is the observation trace up to and including the leak.
	Trace Trace `json:"trace,omitempty"`
	// Schedule is the attacker directive schedule that produced the
	// leak, rendered in the paper's directive syntax (concrete mode).
	Schedule []string `json:"schedule,omitempty"`
	// Witness is a satisfying assignment for the symbolic inputs that
	// reaches the leak (symbolic mode).
	Witness map[string]uint64 `json:"witness,omitempty"`
}

// String renders the finding on one line.
func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s at pc %d", f.Variant, f.Observation, f.PC)
	if len(f.Witness) > 0 {
		s += fmt.Sprintf(" (witness %v)", f.Witness)
	}
	return s
}

// Analysis mode strings used in Report.Mode.
const (
	// ModeConcrete and ModeSymbolic name the two exploration domains.
	ModeConcrete = "concrete"
	ModeSymbolic = "symbolic"
	// ModeStatic marks a report produced entirely by the static
	// pre-analysis (WithStaticPass): the program was proven safe
	// without constructing an explorer, so States and Paths are zero.
	ModeStatic = "static"
)

// StaticReport is the static pre-analysis verdict in the stable wire
// schema (see WithStaticPass and Analyzer.StaticReport).
type StaticReport struct {
	// Safe reports whether the pre-analysis proved the program free of
	// secret-labeled observations under every speculative schedule.
	Safe bool `json:"safe"`
	// Points is the number of program points; Reachable how many the
	// analysis considers (transiently) reachable.
	Points    int `json:"points"`
	Reachable int `json:"reachable"`
	// Suspicious lists the program points the analysis could not prove
	// safe, ascending. Every explorer finding's PC is in this list —
	// the converse need not hold (the analysis over-approximates).
	Suspicious []Addr `json:"suspicious,omitempty"`
	// ComputedFlow reports that the program contains computed control
	// flow (register-target jumps or returns) the static CFG cannot
	// resolve, forcing the analysis to its most conservative regime.
	ComputedFlow bool `json:"computedFlow"`
}

// SolverStats is the symbolic constraint engine's per-analysis
// counters in the stable wire schema: constraint queries answered,
// answers served from the fingerprint-keyed model cache, queries
// refuted (by interval/known-bits propagation or by the solver's
// search), queries whose domains propagation narrowed, models obtained
// by extending the parent path condition's model, search nodes
// expanded beyond each query's root, and queries the search gave up on
// within its node budget. Present only on symbolic reports. Any
// unknown marks the report Truncated. The counters are diagnostics:
// under parallel runs the cache-hit/fresh-solve split depends on
// worker interleaving (findings never do).
type SolverStats struct {
	Queries        uint64 `json:"queries"`
	CacheHits      uint64 `json:"cacheHits"`
	DefiniteUnsats uint64 `json:"definiteUnsats"`
	PropPruned     uint64 `json:"propPruned"`
	ExtendHits     uint64 `json:"extendHits"`
	ProbeIters     uint64 `json:"probeIters"`
	Unknowns       uint64 `json:"unknowns"`
}

// ReportSchemaVersion is the current revision of the wire schema.
// Report.SchemaVersion carries it on versioned wire traffic; an empty
// SchemaVersion means the revision of the library that produced the
// report. See the compatibility policy in the package documentation.
const ReportSchemaVersion = "2"

// Report aggregates one analysis run in the stable wire schema.
type Report struct {
	// SchemaVersion identifies the wire-schema revision of this report.
	// The library leaves it empty (meaning ReportSchemaVersion is
	// implied, which keeps pre-versioning encodings byte-identical);
	// the serving layer stamps it explicitly on every response.
	SchemaVersion string `json:"schemaVersion,omitempty"`
	// Mode is ModeConcrete, ModeSymbolic, or ModeStatic.
	Mode string `json:"mode"`
	// Bound is the speculation bound the run used.
	Bound int `json:"bound"`
	// ForwardHazards reports whether Spectre v4 style forwarding
	// schedules were explored.
	ForwardHazards bool `json:"forwardHazards"`
	// SecretFree reports whether the program was found SCT-clean at
	// the analyzed bound.
	SecretFree bool `json:"secretFree"`
	// Findings are the detected violations, in discovery order.
	Findings []Finding `json:"findings"`
	// States is the number of explored machine states; Paths the
	// number of completed exploration paths.
	States int `json:"states"`
	Paths  int `json:"paths"`
	// Truncated reports an inconclusive run: the MaxStates budget was
	// exhausted, or (symbolic mode) a solver query ended unknown, so a
	// branch arm or concretization target may have gone unexplored.
	Truncated bool `json:"truncated"`
	// Interrupted reports whether the run was cut short — by context
	// cancellation or by a Stream callback returning false.
	Interrupted bool `json:"interrupted"`
	// Workers is the number of exploration goroutines the run used
	// (see WithWorkers).
	Workers int `json:"workers"`
	// DedupHits counts exploration states pruned by fingerprint
	// deduplication (see WithDedup); 0 when dedup is off.
	DedupHits int `json:"dedupHits"`
	// Static is the static pre-analysis verdict when WithStaticPass was
	// enabled; nil otherwise (absent on the wire).
	Static *StaticReport `json:"static,omitempty"`
	// Solver carries the constraint engine's counters on symbolic
	// reports; nil in concrete and static modes (absent on the wire,
	// so pre-existing encodings are unchanged).
	Solver *SolverStats `json:"solver,omitempty"`
	// CacheHit and Coalesced are cache provenance, stamped by the
	// serving layer and never set by the library: CacheHit marks a
	// report answered from the verdict cache without running an
	// analysis; Coalesced marks a report shared from another request's
	// in-flight analysis of the same (fingerprint, config) key. Both
	// are absent from the wire when false, so library-produced
	// encodings are unchanged.
	CacheHit  bool `json:"cacheHit,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
}

// Summary renders a one-line result.
func (r *Report) Summary() string {
	status := "clean"
	if !r.SecretFree {
		status = fmt.Sprintf("%d violation(s)", len(r.Findings))
	}
	s := fmt.Sprintf("%s (%s mode, bound %d, %d states, %d paths)",
		status, r.Mode, r.Bound, r.States, r.Paths)
	if r.Interrupted {
		s += " [interrupted]"
	}
	if r.Truncated {
		s += " [truncated]"
	}
	if !r.SecretFree {
		s += "; first: " + r.Findings[0].String()
	}
	return s
}

// ---------------------------------------------------------------------
// Conversions between the wire schema and the internal types.
// ---------------------------------------------------------------------

func obsOf(o core.Observation) Observation {
	out := Observation{Secret: o.Secret()}
	switch o.Kind {
	case core.ORead:
		out.Kind, out.Addr = ObsRead, o.Addr
	case core.OFwd:
		out.Kind, out.Addr = ObsFwd, o.Addr
	case core.OWrite:
		out.Kind, out.Addr = ObsWrite, o.Addr
	case core.OJump:
		out.Kind, out.Target = ObsJump, o.Target
	case core.ORollback:
		out.Kind = ObsRollback
	}
	return out
}

func traceOf(t core.Trace) Trace {
	out := make(Trace, len(t))
	for i, o := range t {
		out[i] = obsOf(o)
	}
	return out
}

// coreObs lowers a wire observation back into the semantics' type.
// Only the binary public/secret distinction survives the wire schema;
// secret observations come back with the canonical secret label.
func coreObs(o Observation) core.Observation {
	label := mem.Public
	if o.Secret {
		label = mem.Secret
	}
	switch o.Kind {
	case ObsRead:
		return core.ReadObs(o.Addr, label)
	case ObsFwd:
		return core.FwdObs(o.Addr, label)
	case ObsWrite:
		return core.WriteObs(o.Addr, label)
	case ObsJump:
		return core.JumpObs(o.Target, label)
	default:
		return core.RollbackObs()
	}
}

func coreTrace(t Trace) core.Trace {
	out := make(core.Trace, len(t))
	for i, o := range t {
		out[i] = coreObs(o)
	}
	return out
}

func findingOf(v pitchfork.Violation) Finding {
	f := Finding{
		Variant:     v.Kind.String(),
		PC:          v.PC,
		Observation: obsOf(v.Obs),
		Trace:       traceOf(v.Trace),
	}
	for _, s := range v.Sources {
		f.Sources = append(f.Sources, SpecSource{Kind: s.Kind.String(), PC: Addr(s.PC)})
	}
	if len(v.Schedule) > 0 {
		f.Schedule = make([]string, len(v.Schedule))
		for i, d := range v.Schedule {
			f.Schedule[i] = d.String()
		}
	}
	if len(v.Model) > 0 {
		f.Witness = make(map[string]uint64, len(v.Model))
		for k, w := range v.Model {
			f.Witness[k] = w
		}
	}
	return f
}

func reportOf(rep pitchfork.Report, bound int, fwd bool) *Report {
	out := &Report{
		Mode:           rep.Mode,
		Bound:          bound,
		ForwardHazards: fwd,
		SecretFree:     len(rep.Violations) == 0,
		Findings:       make([]Finding, 0, len(rep.Violations)),
		States:         rep.States,
		Paths:          rep.Paths,
		Truncated:      rep.Truncated,
		Interrupted:    rep.Interrupted,
		Workers:        rep.Workers,
		DedupHits:      rep.DedupHits,
	}
	if rep.Solver != nil {
		out.Solver = &SolverStats{
			Queries:        rep.Solver.Queries,
			CacheHits:      rep.Solver.CacheHits,
			DefiniteUnsats: rep.Solver.DefiniteUnsats,
			PropPruned:     rep.Solver.PropPruned,
			ExtendHits:     rep.Solver.ExtendHits,
			ProbeIters:     rep.Solver.ProbeIters,
			Unknowns:       rep.Solver.Unknowns,
		}
	}
	for _, v := range rep.Violations {
		out.Findings = append(out.Findings, findingOf(v))
	}
	return out
}
