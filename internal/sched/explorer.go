// Package sched implements Pitchfork's worst-case schedule generation
// (§4.1 of the paper, formalized as the tool schedules DT(n) of
// Def. B.18) as a depth-first exploration over a speculative machine.
//
// The strategy, per the paper:
//
//   - fetch eagerly until the reorder buffer reaches the speculation
//     bound, retiring only as necessary to fetch;
//   - at each conditional branch, fork schedules for both guesses and
//     execute the *oldest* in-flight branch as late as possible,
//     maximizing its misprediction window (younger branches nested in
//     that window resolve eagerly once other work drains, so their
//     observations and rollbacks land inside it);
//   - execute indirect jumps as soon as their targets resolve — the
//     tool follows computed control flow architecturally, which is
//     also what opens the speculative stale-return window (Fig. 10);
//   - with forwarding-hazard detection enabled, defer store address
//     resolution and fork each load over all forwarding outcomes: read
//     (possibly stale) memory now, or first resolve the address of one
//     of the pending stores;
//   - execute everything else eagerly and in program order.
//
// Soundness (Thm. B.20): a secret-labeled observation under any
// schedule implies one under a schedule in this set, so exploring only
// these schedules suffices to detect SCT violations up to the bound.
//
// The engine is parameterized over a value domain (see domain.go): the
// same strategy drives the concrete reference machine of internal/core
// and the symbolic machine of internal/pitchfork. Domains may fork on
// a single directive (a symbolic branch condition splits into its
// feasible worlds); the engine treats every fork point uniformly.
//
// Explore is the one entry point: it runs the strategy from a domain
// machine (sched.Concrete wraps a core.Machine) under Options. The
// exploration runs on one goroutine by default; Options.Workers
// switches to a work-stealing pool (see parallel.go), and
// Options.DedupEntries enables fingerprint-based pruning of
// re-converged states — in either domain.
package sched

import (
	"fmt"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
)

// Options configure an exploration.
type Options struct {
	// Bound is the speculation bound: the maximum reorder-buffer size,
	// hence the maximum speculation depth. The paper runs 250 without
	// forwarding-hazard detection and 20 with it.
	Bound int
	// ForwardHazards enables exploration of store-forwarding outcomes
	// (Spectre v4 and the paper's "f" findings). Off, stores resolve
	// addresses eagerly and only v1/v1.1 schedules are generated.
	ForwardHazards bool
	// MaxStates bounds the number of explored states (forked paths ×
	// steps); 0 means DefaultMaxStates.
	MaxStates int
	// MaxRetired bounds retired instructions per path; 0 means
	// DefaultMaxRetired.
	MaxRetired int
	// StopAtFirst stops the exploration at the first violation.
	StopAtFirst bool
	// Workers is the number of exploration goroutines. 0 and 1 run the
	// classic serial depth-first exploration; n > 1 runs the
	// work-stealing parallel explorer of parallel.go, whose violations
	// are reported in deterministic schedule order (not discovery
	// order). Full parallel explorations are fully deterministic;
	// under an early stop (StopAtFirst, Interrupt, a stopping
	// OnViolation, or truncation) which states were reached before the
	// stop propagated is timing-dependent, so the stopping run's
	// States/Paths counts — and, for StopAtFirst, which single
	// violation is reported — may vary between runs.
	Workers int
	// DedupEntries, when positive, bounds a machine-fingerprint table
	// that prunes states whose configuration was already visited —
	// many forwarding-fork arms reconverge, so dedup cuts states
	// independently of parallelism. Pruning trades exactness for
	// speed: path counts shrink, and a 64-bit fingerprint collision
	// could in principle prune a genuinely new state. 0 disables.
	DedupEntries int
	// OnViolation, if non-nil, is invoked synchronously as each
	// violation is recorded, before exploration continues. Returning
	// false stops the exploration early, like StopAtFirst. With
	// Workers > 1 the callback is serialized by the pool but may be
	// invoked from different goroutines.
	OnViolation func(Violation) bool
	// Interrupt, if non-nil, is polled once per explored state.
	// Returning true aborts the exploration; the violations found so
	// far remain in the result and Result.Interrupted is set. With
	// Workers > 1 it must be safe for concurrent calls.
	Interrupt func() bool
	// Prune, if non-nil, supplies static pre-analysis verdicts that let
	// the explorer collapse speculation forks whose entire subtree is
	// provably violation-free (see PruneHints). The reported violation
	// set is identical with and without hints; States and Paths shrink.
	Prune PruneHints
}

// DefaultMaxStates and DefaultMaxRetired are the exploration budgets
// used when Options leaves them zero.
const (
	DefaultMaxStates  = 200_000
	DefaultMaxRetired = 20_000
)

// Violation is one detected SCT violation: a secret-labeled
// observation reachable under a worst-case schedule.
type Violation struct {
	Obs      core.Observation
	Schedule core.Schedule // attacker directive schedule that produced it
	Trace    core.Trace    // observation trace up to and including Obs
	Kind     VariantKind   // heuristic Spectre-variant classification
	PC       isa.Addr      // program point of the instruction that produced Obs
	// Sources are the speculation primitives still unresolved when the
	// leak was detected — the guards the leaking instruction raced
	// ahead of. Fence-repair synthesis uses them to place fences at
	// the speculation source rather than at the leak.
	Sources []Source
	// Model is a witness assignment of the domain's symbolic inputs
	// reaching the leak (nil in the concrete domain).
	Model map[string]uint64
}

// SourceKind discriminates the speculation primitives a leak can hide
// behind.
type SourceKind uint8

const (
	// SrcBranch is an unresolved conditional branch (Spectre v1/v1.1).
	SrcBranch SourceKind = iota
	// SrcStore is a store whose address is still unresolved — the
	// stale-load window of Spectre v4 and the forwarding hazards.
	SrcStore
	// SrcRet is an in-flight return: its target is an RSB (or
	// attacker) prediction until the return-address load commits.
	SrcRet
)

// String names the source kind in the wire vocabulary.
func (k SourceKind) String() string {
	switch k {
	case SrcBranch:
		return "branch"
	case SrcStore:
		return "store"
	case SrcRet:
		return "return"
	}
	return "unknown"
}

// Source is one speculation source of a violation: the kind of guard
// and the program point of the guarding instruction. For the store of
// a call expansion (the return-address push) PC names the call itself.
type Source struct {
	Kind SourceKind
	PC   isa.Addr
}

// String renders the source, e.g. "branch@4".
func (s Source) String() string { return fmt.Sprintf("%s@%d", s.Kind, s.PC) }

// specSources collects the unresolved speculation primitives of the
// machine's reorder buffer, oldest first, deduplicated by (kind, pc).
func specSources(m Machine) []Source {
	// Violations are hot enough for a map allocation here to show up in
	// profiles; the slice stays tiny (bounded by the reorder buffer), so
	// a linear scan dedups cheaper than a map.
	var out []Source
	add := func(s Source) {
		for _, have := range out {
			if have == s {
				return
			}
		}
		out = append(out, s)
	}
	for i := m.BufMin(); i <= m.BufMax(); i++ {
		t, ok := m.View(i)
		if !ok {
			continue
		}
		switch t.Kind {
		case core.TBr:
			add(Source{Kind: SrcBranch, PC: t.PP})
		case core.TStore:
			if !t.AddrKnown {
				add(Source{Kind: SrcStore, PC: t.PP})
			}
		case core.TRet:
			add(Source{Kind: SrcRet, PC: t.PP})
		}
	}
	return out
}

// String renders the violation compactly, with the witness
// assignment when the domain supplied one.
func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s at pc %d", v.Kind, v.Obs, v.PC)
	if len(v.Model) > 0 {
		s += fmt.Sprintf(" (witness %v)", v.Model)
	}
	return s
}

// VariantKind classifies a violation by its microarchitectural cause.
type VariantKind uint8

const (
	// VariantUnknown is reported when no classification rule applies.
	VariantUnknown VariantKind = iota
	// VariantV1 is classic bounds-check bypass: a leak while a
	// conditional branch is still speculatively unresolved.
	VariantV1
	// VariantV11 is Spectre v1.1: the leaked data was forwarded from a
	// speculative store.
	VariantV11
	// VariantV4 is speculative store bypass: a load executed ahead of
	// an unresolved store address and read stale data.
	VariantV4
	// VariantSeq marks a leak that occurs with no speculation in
	// flight: the program is not even sequentially constant-time.
	VariantSeq
)

// String names the variant.
func (k VariantKind) String() string {
	switch k {
	case VariantV1:
		return "spectre-v1"
	case VariantV11:
		return "spectre-v1.1"
	case VariantV4:
		return "spectre-v4"
	case VariantSeq:
		return "sequential-ct-violation"
	default:
		return "unclassified"
	}
}

// Result aggregates an exploration.
type Result struct {
	Violations []Violation
	// States is the number of explored machine states.
	States int
	// Paths is the number of completed exploration paths (halted,
	// budget-exhausted, stopped at a violation, or pruned by dedup).
	Paths int
	// Truncated reports whether the MaxStates budget was hit.
	Truncated bool
	// Interrupted reports whether Options.Interrupt (or an OnViolation
	// callback returning false) cut the exploration short.
	Interrupted bool
	// DedupHits is the number of states pruned because their machine
	// fingerprint was already in the dedup table.
	DedupHits int
	// Workers is the number of exploration goroutines the run used.
	Workers int
}

// SecretFree reports whether no violation was found.
func (r Result) SecretFree() bool { return len(r.Violations) == 0 }

// state is one node of the exploration tree. The schedule and trace
// are immutable parent-pointer chains (see chain.go): forks share the
// prefix structurally instead of copying it, so cloning a state costs
// O(1) plus the machine's own copy-on-write fork. Nodes are pooled —
// use newState/releaseState, never allocate directly.
type state struct {
	m     Machine
	sched *schedNode
	// trace is the observation chain; each node carries the program
	// point of the instruction that produced the observation — so
	// violations point at the leaking instruction, not the fetch head
	// at detection time.
	trace *traceNode
	// secret is the oldest secret-labeled observation on the trace, or
	// nil — maintained incrementally as observations append, replacing
	// the full-trace FirstSecret scan per explored state.
	secret *traceNode
}

func (s *state) clone() *state {
	c := newState()
	c.m = s.m.Clone()
	c.sched, c.trace, c.secret = s.sched, s.trace, s.secret
	return c
}

// Explore runs the worst-case schedules of a domain machine under opts
// (concrete callers pass Concrete(m)). The machine is cloned up front,
// so the caller's copy is not mutated, and all per-run state lives in
// the call, so concurrent Explore calls are independent. An error
// means the options are invalid.
func Explore(m Machine, opts Options) (Result, error) {
	if opts.Bound < 1 {
		return Result{}, fmt.Errorf("sched: speculation bound must be positive, got %d", opts.Bound)
	}
	if opts.Workers < 0 {
		return Result{}, fmt.Errorf("sched: workers must be non-negative, got %d", opts.Workers)
	}
	if opts.DedupEntries < 0 {
		return Result{}, fmt.Errorf("sched: dedup entries must be non-negative, got %d", opts.DedupEntries)
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.MaxRetired == 0 {
		opts.MaxRetired = DefaultMaxRetired
	}
	var dedup *dedupTable
	if opts.DedupEntries > 0 {
		dedup = newDedupTable(opts.DedupEntries)
	}
	root := newState()
	root.m = m.Clone()
	if opts.Workers > 1 {
		return exploreParallel(&opts, dedup, root), nil
	}
	return exploreSerial(&opts, dedup, root), nil
}

// exploreSerial is the classic single-goroutine depth-first driver.
func exploreSerial(opts *Options, dedup *dedupTable, root *state) Result {
	res := Result{Workers: 1}
	stopped := false
	stack := []*state{root}
	// Successors land directly on the stack as advance produces them
	// (same order as before: the last-emitted arm is explored first).
	emit := func(s *state) { stack = append(stack, s) }
	for len(stack) > 0 {
		if res.States >= opts.MaxStates {
			res.Truncated = true
			break
		}
		if opts.Interrupt != nil && opts.Interrupt() {
			res.Interrupted = true
			break
		}
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.States++

		done, deduped, viol := advance(opts, dedup, st, emit)
		if viol != nil {
			res.Violations = append(res.Violations, *viol)
			if opts.OnViolation != nil && !opts.OnViolation(*viol) {
				stopped = true
			}
		}
		if deduped {
			res.DedupHits++
		}
		if done {
			res.Paths++
			releaseState(st)
			if stopped {
				res.Interrupted = true
				break
			}
			if opts.StopAtFirst && len(res.Violations) > 0 {
				break
			}
		}
	}
	for _, s := range stack {
		releaseState(s)
	}
	return res
}

// advance pushes st forward by one strategy decision. It is a pure
// function of the options, the dedup table, and the state — it touches
// no explorer-level mutable state, so serial and parallel drivers share
// it. done=true means the path is finished (with viol set if it ended
// in a violation, deduped set if it was pruned as a revisited
// configuration); otherwise the successor states (one for deterministic
// steps, several at fork points) are delivered through emit, in
// deterministic order, avoiding a per-step slice allocation.
func advance(opts *Options, dedup *dedupTable, st *state, emit func(*state)) (done, deduped bool, viol *Violation) {
	m := st.m

	// Leak check on everything observed so far. The first secret
	// observation is tracked incrementally as the trace grows (see
	// apply), so the check is O(1); the trace prefix up to the leak is
	// materialized only now that a violation is actually recorded.
	if st.secret != nil {
		prefix := st.secret.materialize()
		return true, false, &Violation{
			Obs:      st.secret.o,
			Schedule: st.sched.materialize(),
			Trace:    prefix,
			Kind:     classify(m, prefix, len(prefix)-1),
			PC:       st.secret.pp,
			Sources:  specSources(m),
			Model:    m.Witness(),
		}
	}
	in, fetchable := m.Instr()
	if (m.BufLen() == 0 && !fetchable) || m.RetiredCount() >= opts.MaxRetired {
		return true, false, nil
	}
	// Dedup check after the leak and termination checks: a pruned
	// state is always secret-free so far, so its subtree's violations
	// are exactly those reachable from the first-visited equivalent
	// configuration.
	if dedup != nil && dedup.seen(m.Fingerprint()) {
		return true, true, nil
	}

	// Fetch phase: eager until the bound.
	if m.BufLen() < opts.Bound && fetchable {
		switch in.Kind {
		case isa.KBr:
			// A statically fork-free branch point can't lead to a
			// violation on either guess (and nothing already buffered can
			// leak), so one arm stands in for both.
			if pruneFork(m, opts.Prune, m.PC()) {
				if apply(st, core.FetchGuess(true), emit) {
					return false, false, nil
				}
				return true, false, nil
			}
			// Fork both guesses; both arms delay branch execution. The
			// fetch either applies in both worlds or stalls in both (the
			// directive checks are guess-independent), so the clone is
			// made only once the first arm has succeeded.
			b := st.clone()
			if !apply(st, core.FetchGuess(true), emit) {
				releaseState(b)
				return true, false, nil
			}
			if !apply(b, core.FetchGuess(false), emit) {
				releaseState(b)
			}
			return false, false, nil
		case isa.KJmpi:
			// The tool follows the architecturally correct target
			// (it does not model indirect-jump speculation, §4).
			if target, ok := m.PeekJmpi(in); ok {
				if apply(st, core.FetchTarget(target), emit) {
					return false, false, nil
				}
				return true, false, nil
			}
			// Target operands pending: fall through to execution.
		case isa.KRet:
			if _, ok := m.RSBTop(); !ok {
				// The tool does not model RSB underflow attacks;
				// predict through the in-memory return address.
				if target, ok := m.PeekRet(); ok {
					if apply(st, core.FetchTarget(target), emit) {
						return false, false, nil
					}
					return true, false, nil
				}
				break // execute pending work first
			}
			if apply(st, core.Fetch(), emit) {
				return false, false, nil
			}
			return true, false, nil
		default:
			if apply(st, core.Fetch(), emit) {
				return false, false, nil
			}
			return true, false, nil
		}
	}

	// Execute phase: oldest actionable instruction first.
	if executePhase(opts, st, emit) {
		return false, false, nil
	}

	// Nothing else is actionable: retire if possible, otherwise force
	// the delayed control flow / store addresses, oldest first.
	i := m.BufMin()
	t, ok := m.View(i)
	if !ok {
		// Empty buffer and nothing fetchable at bound>0: halt was
		// handled above, so this is a wedged path (e.g. jmpi whose
		// operands can never resolve).
		return true, false, nil
	}
	if t.Resolved {
		if apply(st, core.Retire(), emit) {
			return false, false, nil
		}
		// A call/ret marker retires only with its whole expansion
		// resolved: force the first unresolved member.
		for j := i + 1; j <= m.BufMax(); j++ {
			u, ok := m.View(j)
			if !ok || u.Resolved {
				continue
			}
			if forceOne(st, j, u, emit) {
				return false, false, nil
			}
			break
		}
		return true, false, nil
	}
	if forceOne(st, i, t, emit) {
		return false, false, nil
	}
	return true, false, nil
}

// forceOne issues the directive that makes progress on an unresolved
// instruction regardless of the deferral rules — used when nothing can
// proceed otherwise (delayed branches at the head, deferred store
// addresses blocking retirement, call/ret expansion members).
func forceOne(st *state, i int, t TransientView, emit func(*state)) bool {
	switch t.Kind {
	case core.TBr, core.TJmpi, core.TLoad, core.TOp:
		return apply(st, core.Execute(i), emit)
	case core.TStore:
		if !t.ValKnown {
			return apply(st, core.ExecuteValue(i), emit)
		}
		return apply(st, core.ExecuteAddr(i), emit)
	}
	return false
}

// executePhase scans the buffer in ascending order for the first
// eagerly executable instruction, applying the deferral rules for
// branches (always delayed) and store addresses (delayed under
// forwarding-hazard mode). Loads fork over forwarding outcomes.
// Successors are delivered through emit; the return reports whether a
// step was taken.
func executePhase(opts *Options, st *state, emit func(*state)) bool {
	m := st.m
	// One forward scan: it stops at the first fence (nothing beyond a
	// pending fence may execute) and records the oldest pending branch
	// for the branch pass below.
	last, oldest := m.BufMax(), 0
	for i := m.BufMin(); i <= m.BufMax(); i++ {
		t, ok := m.View(i)
		if !ok {
			continue
		}
		if t.Kind == core.TFence {
			last = i
			break
		}
		switch t.Kind {
		case core.TOp:
			if apply(st, core.Execute(i), emit) {
				return true
			}
		case core.TJmpi:
			// Indirect jumps execute as soon as their target operands
			// resolve: the tool follows computed targets architecturally
			// (no jmpi speculation), and eager resolution is what opens
			// the speculative stale-return window of the Fig. 10 gadget
			// — the transient return must happen *before* the pending
			// store address resolves and flags the hazard.
			if apply(st, core.Execute(i), emit) {
				return true
			}
		case core.TBr:
			if oldest == 0 {
				oldest = i
			}
			continue // branches resolve in the second pass below
		case core.TStore:
			if !t.ValKnown {
				if apply(st, core.ExecuteValue(i), emit) {
					return true
				}
				continue
			}
			if !t.AddrKnown && !opts.ForwardHazards {
				if apply(st, core.ExecuteAddr(i), emit) {
					return true
				}
			}
			continue
		case core.TLoad:
			if loadFork(opts, st, i, emit) {
				return true
			}
		}
	}
	// Second pass: with all non-branch work drained, resolve pending
	// branches young-to-old — the oldest in-flight branch is delayed
	// to the last possible moment (maximizing its misprediction
	// window), while branches nested inside that window resolve
	// eagerly so their own observations and rollbacks land within it.
	// Only branches at or below the first fence may execute.
	for i := last; i > oldest && oldest != 0; i-- {
		t, ok := m.View(i)
		if !ok || t.Kind != core.TBr {
			continue
		}
		if apply(st, core.Execute(i), emit) {
			return true
		}
	}
	return false
}

// loadFork decides how the load at index i resolves. Without
// forwarding hazards, or with no pending store addresses below it, the
// load simply executes. Otherwise the fork of Def. B.18 applies: one
// arm executes the load immediately (reading stale memory or
// forwarding from an already-resolved store), and one arm per pending
// store resolves that store's address first, then re-decides.
func loadFork(opts *Options, st *state, i int, emit func(*state)) bool {
	m := st.m
	var pending []int
	if opts.ForwardHazards {
		for j := m.BufMin(); j < i; j++ {
			if s, ok := m.View(j); ok && s.Kind == core.TStore && !s.AddrKnown && s.ValKnown {
				pending = append(pending, j)
			}
		}
	}
	if len(pending) == 0 {
		return apply(st, core.Execute(i), emit)
	}
	// A statically fork-free load point can't produce a violation under
	// any forwarding outcome (and nothing buffered can leak), so
	// executing the load now stands in for the whole forwarding fork.
	if t, ok := m.View(i); ok && pruneFork(m, opts.Prune, t.PP) {
		return apply(st, core.Execute(i), emit)
	}
	acted := false
	// Arm 0: execute the load now, skipping the pending stores.
	now := st.clone()
	if apply(now, core.Execute(i), emit) {
		acted = true
	} else {
		releaseState(now)
	}
	// One arm per pending store: resolve its address first. The load
	// re-decides on the next visit (and may fork again over the
	// remaining pending stores).
	for _, j := range pending {
		arm := st.clone()
		if apply(arm, core.ExecuteAddr(j), emit) {
			acted = true
		} else {
			releaseState(arm)
		}
	}
	if acted {
		// Every live arm is a clone; the parent node itself was not
		// emitted and the path is not "done", so recycle it here.
		releaseState(st)
	}
	return acted
}

// apply runs d on the state's machine, threading schedule, trace, and
// source program points through to each successor; false means the
// directive stalled (the path cannot continue this way). Deterministic
// steps mutate st in place and emit it; at a domain fork the chains
// are shared structurally — each successor just pushes its own
// arm-disambiguated directive onto the common prefix and is emitted in
// arm order. The schedule chain feeds both Violation.Schedule and the
// parallel driver's deterministic merge.
func apply(st *state, d core.Directive, emit func(*state)) bool {
	pp := sourcePoint(st.m, d)
	succs, err := st.m.Step(d)
	if err != nil || len(succs) == 0 {
		return false
	}
	// Every arm extends the same chains (immutable, so sharing them
	// with an already-emitted arm is safe).
	baseSched, baseTrace, baseSecret := st.sched, st.trace, st.secret
	for k, sc := range succs {
		ns := st
		if k > 0 {
			ns = newState()
		}
		ns.m = sc.M
		ns.sched = baseSched.push(sc.D)
		ns.trace, ns.secret = baseTrace, baseSecret
		for _, o := range sc.Obs {
			ns.trace = ns.trace.push(o, pp)
			if ns.secret == nil && o.Secret() {
				ns.secret = ns.trace
			}
		}
		emit(ns)
	}
	return true
}

// sourcePoint resolves, before the directive runs, the program point
// of the instruction it acts on — the point any observations the step
// produces are attributed to. Execute-family directives name a buffer
// index; retire acts on the buffer head; fetch directives produce no
// observations, so the fetch head is an adequate fallback.
func sourcePoint(m Machine, d core.Directive) isa.Addr {
	switch d.Kind {
	case core.DExecute, core.DExecValue, core.DExecAddr, core.DExecFwd:
		if t, ok := m.View(d.I); ok {
			return t.PP
		}
	case core.DRetire:
		if t, ok := m.View(m.BufMin()); ok {
			return t.PP
		}
	}
	return m.PC()
}

// classify heuristically attributes a violation to a Spectre variant
// from the machine state at detection time.
func classify(m Machine, trace core.Trace, at int) VariantKind {
	brInFlight := false
	staleWindow := false
	fwdSecret := false
	unresolved := false
	for i := m.BufMin(); i <= m.BufMax(); i++ {
		t, ok := m.View(i)
		if !ok {
			continue
		}
		if !t.Resolved {
			unresolved = true
		}
		switch t.Kind {
		case core.TBr:
			brInFlight = true
		case core.TStore:
			if !t.AddrKnown {
				staleWindow = true
			}
		}
		// A secret load value forwarded from a buffered store marks the
		// v1.1 family.
		if t.FwdSecret {
			fwdSecret = true
		}
	}
	// Forwarded secret ⇒ v1.1 family if speculating on a branch.
	for k := 0; k <= at; k++ {
		if trace[k].Kind == core.OFwd && trace[k].Secret() {
			fwdSecret = true
		}
	}
	switch {
	case brInFlight && fwdSecret:
		return VariantV11
	case brInFlight:
		return VariantV1
	case staleWindow:
		return VariantV4
	case m.BufLen() == 0 || !unresolved:
		return VariantSeq
	default:
		return VariantUnknown
	}
}
