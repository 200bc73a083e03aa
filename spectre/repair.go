package spectre

import (
	"context"
	"fmt"
	"strings"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/repair"
)

// Repair outcome strings of the wire schema.
const (
	// RepairClean: the program verified secret-free as given.
	RepairClean = "clean"
	// RepairRepaired: fences were synthesized and the program
	// re-verified secret-free.
	RepairRepaired = "repaired"
	// RepairSequentialLeak: the program leaks with no speculation in
	// flight; no fence set can repair it.
	RepairSequentialLeak = "sequential-leak"
	// RepairExhausted: the synthesis budget ran out before
	// verification came back clean.
	RepairExhausted = "exhausted"
	// RepairUnsafeRewrite: the fence set would shift the target of a
	// computed jump, which the program rewriter cannot remap — the
	// repair was refused rather than silently changing behaviour.
	RepairUnsafeRewrite = "unsafe-rewrite"
	// RepairFailed: the engine could not reach a verdict — the
	// accompanying error says why (verification error, inconclusive
	// budget-truncated run, failed behaviour certificate).
	RepairFailed = "failed"
)

// Mitigation strategy names of the wire schema, accepted by
// WithRepairStrategy and reported in RepairResult.Strategy.
const (
	// StrategyAuto runs the whole portfolio and keeps the cheapest
	// certified patch by estimated sequential cost.
	StrategyAuto = repair.StrategyAuto
	// StrategyFence inserts the paper's §3.6 speculation fences.
	StrategyFence = repair.StrategyFence
	// StrategyMask is SLH-style speculative load hardening: a predicate
	// register maintained at protected branches masks flagged load
	// addresses on mis-speculated paths.
	StrategyMask = repair.StrategyMask
	// StrategyRet rewrites flagged returns into Figure 13 retpolines so
	// stale RSB predictions park on a fence.
	StrategyRet = repair.StrategyRet
)

// RepairCost quantifies what a repair cost: patch sites committed,
// instructions inserted, program growth, the sequential-schedule cost
// the portfolio optimizes, and the exploration-effort delta between
// analyzing the unrepaired and the repaired program.
type RepairCost struct {
	// Fences is the size of the final (minimized) patch-site set;
	// PreMinimizeFences the inserted-instruction count before greedy
	// minimization. (The names predate the strategy portfolio: for the
	// fence strategy sites and inserted instructions coincide.)
	Fences            int `json:"fences"`
	PreMinimizeFences int `json:"preMinimizeFences"`
	// Inserted is the number of instructions the final patch inserted
	// (replacements keep the count unchanged, so InstrAfter =
	// InstrBefore + Inserted).
	Inserted int `json:"inserted"`
	// Iterations counts counterexample-guided insertion rounds.
	Iterations int `json:"iterations"`
	// InstrBefore/InstrAfter are the program's instruction counts.
	InstrBefore int `json:"instrBefore"`
	InstrAfter  int `json:"instrAfter"`
	// SeqInstrsBefore/SeqInstrsAfter are the sequential cost model's
	// estimates — instructions retired by the bounded canonical
	// sequential replay — for the original and repaired program. This
	// is the quantity the auto portfolio minimizes: it charges patches
	// on the architectural path (mask predicates, retpolines) and not
	// patches only mis-speculation executes (most fences).
	SeqInstrsBefore int `json:"seqInstrsBefore"`
	SeqInstrsAfter  int `json:"seqInstrsAfter"`
	// StatesBefore/StatesAfter are the explored-state counts of the
	// baseline run and of the final verification run.
	StatesBefore int `json:"statesBefore"`
	StatesAfter  int `json:"statesAfter"`
}

// InstrOverhead is the relative instruction-count growth (0.1 = +10%).
func (c RepairCost) InstrOverhead() float64 {
	if c.InstrBefore == 0 {
		return 0
	}
	return float64(c.InstrAfter-c.InstrBefore) / float64(c.InstrBefore)
}

// StateOverhead is the ratio of explored states after repair to
// before (fences prune speculation, so this is typically well below
// 1).
func (c RepairCost) StateOverhead() float64 {
	if c.StatesBefore == 0 {
		return 0
	}
	return float64(c.StatesAfter) / float64(c.StatesBefore)
}

// Table renders the cost as an aligned two-column table.
func (c RepairCost) Table() string {
	var b strings.Builder
	fences := fmt.Sprintf("%d", c.Fences)
	if c.PreMinimizeFences > c.Inserted {
		fences += fmt.Sprintf(" (minimized from %d)", c.PreMinimizeFences)
	}
	fmt.Fprintf(&b, "  %-18s %s\n", "fences added", fences)
	fmt.Fprintf(&b, "  %-18s %d → %d (%+.1f%%)\n", "instructions", c.InstrBefore, c.InstrAfter, 100*c.InstrOverhead())
	if c.SeqInstrsBefore > 0 {
		fmt.Fprintf(&b, "  %-18s %d → %d retired\n", "sequential cost", c.SeqInstrsBefore, c.SeqInstrsAfter)
	}
	fmt.Fprintf(&b, "  %-18s %d → %d (×%.2f)\n", "explored states", c.StatesBefore, c.StatesAfter, c.StateOverhead())
	fmt.Fprintf(&b, "  %-18s %d", "iterations", c.Iterations)
	return b.String()
}

// RepairResult is the outcome of an automatic repair.
type RepairResult struct {
	// Outcome is one of the Repair* constants.
	Outcome string `json:"outcome"`
	// Strategy names the mitigation that produced this result (one of
	// the Strategy* constants, never "auto": an auto run reports the
	// winning strategy here and the attempts under PerStrategy). Empty
	// when the program was clean as given.
	Strategy string `json:"strategy,omitempty"`
	// Program is the repaired program (the input program when no
	// rewrite happened). Not part of the wire schema; the CLI emits
	// its disassembly instead.
	Program *Program `json:"-"`
	// Sites are the committed patch sites in the original program's
	// address space (fence insertion points, protected branches, or
	// rewritten rets, per Strategy); FencePoints the inserted
	// instructions' program points in the repaired program's address
	// space. Both sorted.
	Sites       []Addr `json:"sites,omitempty"`
	FencePoints []Addr `json:"fencePoints,omitempty"`
	// Cost quantifies the repair.
	Cost RepairCost `json:"cost"`
	// PerStrategy reports every strategy's attempt, in portfolio
	// order, when the repair ran the auto portfolio (nil otherwise).
	PerStrategy []StrategyCost `json:"perStrategy,omitempty"`
	// Before is the analysis of the unrepaired program; After the
	// final verification run (equal to Before when nothing changed).
	Before *Report `json:"before"`
	After  *Report `json:"after"`
}

// StrategyCost is one portfolio attempt on the wire: the strategy, how
// the attempt ended, and what it would have cost.
type StrategyCost struct {
	Strategy string     `json:"strategy"`
	Outcome  string     `json:"outcome"`
	Cost     RepairCost `json:"cost"`
}

// SecretFree reports whether the outcome certifies a secret-free
// program — either as given (clean) or after repair.
func (r *RepairResult) SecretFree() bool {
	return r.Outcome == RepairClean || r.Outcome == RepairRepaired
}

// Summary renders a one-line result.
func (r *RepairResult) Summary() string {
	switch r.Outcome {
	case RepairClean:
		return fmt.Sprintf("clean as given (%d states explored)", r.Cost.StatesBefore)
	case RepairRepaired:
		if r.Strategy == "" || r.Strategy == StrategyFence {
			return fmt.Sprintf("repaired: %d fence(s), %d → %d instructions (%+.1f%%), %d → %d explored states",
				r.Cost.Fences, r.Cost.InstrBefore, r.Cost.InstrAfter, 100*r.Cost.InstrOverhead(),
				r.Cost.StatesBefore, r.Cost.StatesAfter)
		}
		return fmt.Sprintf("repaired: %s at %d site(s), %d → %d instructions (%+.1f%%), %d → %d explored states",
			r.Strategy, r.Cost.Fences, r.Cost.InstrBefore, r.Cost.InstrAfter, 100*r.Cost.InstrOverhead(),
			r.Cost.StatesBefore, r.Cost.StatesAfter)
	case RepairSequentialLeak:
		return "unrepairable: leaks sequentially (fences only constrain speculation)"
	case RepairExhausted:
		return fmt.Sprintf("repair exhausted after %d iteration(s), %d fence(s) tried",
			r.Cost.Iterations, len(r.Sites))
	case RepairUnsafeRewrite:
		return fmt.Sprintf("unrepairable: fence set would retarget a computed jump (%d site(s) proposed)",
			len(r.Sites))
	default:
		return fmt.Sprintf("repair failed after %d iteration(s); see the accompanying error", r.Cost.Iterations)
	}
}

// StrategyTable renders the portfolio attempts as an aligned table,
// one row per strategy, marking the chosen one. Empty when the repair
// did not run the auto portfolio.
func (r *RepairResult) StrategyTable() string {
	if len(r.PerStrategy) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s %-15s %6s %9s %12s %12s\n", "strategy", "outcome", "sites", "inserted", "seq cost", "instrs")
	for _, a := range r.PerStrategy {
		chosen := " "
		if a.Strategy == r.Strategy {
			chosen = "*"
		}
		seq, instrs := "-", "-"
		if a.Outcome == RepairRepaired || a.Outcome == RepairClean {
			seq = fmt.Sprintf("%d → %d", a.Cost.SeqInstrsBefore, a.Cost.SeqInstrsAfter)
			instrs = fmt.Sprintf("%d → %d", a.Cost.InstrBefore, a.Cost.InstrAfter)
		}
		fmt.Fprintf(&b, "%s %-10s %-15s %6d %9d %12s %12s\n", chosen, a.Strategy, a.Outcome, a.Cost.Fences, a.Cost.Inserted, seq, instrs)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Repair synthesizes a mitigation for the program: it analyzes p with
// the analyzer's configuration, maps each finding back to its guarding
// speculation source (branch, forwarded store, or return), asks the
// configured strategy (WithRepairStrategy; the cheapest-certified auto
// portfolio by default) for patches at those sources, re-verifies, and
// iterates until the program is secret-free at the analyzed bound —
// then minimizes the patch-site set by greedy deletion under
// re-verification, ordered by the sequential cost model. The repair
// additionally carries a behaviour certificate: the repaired program's
// (concrete) sequential observation trace must equal the original's
// modulo the patch plan's address map — in symbolic mode the replay
// substitutes each symbolic binding's concrete seed.
//
// The analyzer's WithStopAtFirst setting is ignored during repair —
// every round wants all counterexamples. A program that violates
// constant-time sequentially is reported RepairSequentialLeak and
// left unmodified. Cancelling the context aborts the synthesis with
// an error.
func (a *Analyzer) Repair(ctx context.Context, p *Program) (*RepairResult, error) {
	return a.repairWith(ctx, p, a.cfg.Workers)
}

func (a *Analyzer) repairWith(ctx context.Context, p *Program, workers int) (*RepairResult, error) {
	if p == nil {
		return nil, fmt.Errorf("spectre: nil program")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The sequential precheck and the behaviour certificate replay the
	// concrete machine in every mode; under WithSymbolic the symbolic
	// bindings are simply replaced by their concrete seeds for the
	// replay (verification itself stays symbolic).
	ropts := repair.Options{
		Verify:       a.repairVerifier(ctx, p, workers),
		MaxSeqInstrs: a.cfg.MaxRetired,
		Strategy:     a.cfg.RepairStrategy,
		Machine: func(ip *isa.Program) *core.Machine {
			return p.withProg(ip).machine()
		},
	}
	if a.cfg.StaticPass {
		// Rank candidate fence sites by static suspiciousness so each
		// round commits only the most promising placement.
		if srep, err := staticAnalyze(p); err == nil {
			ropts.Hints = srep
		}
	}
	res, err := repair.Repair(p.prog, ropts)
	if res == nil {
		return nil, fmt.Errorf("spectre: %w", err)
	}
	out := repairResultOf(a, p, res)
	if err != nil {
		return out, fmt.Errorf("spectre: %w", err)
	}
	return out, nil
}

// repairVerifier adapts the analyzer's configuration into the engine's
// verification hook, running each candidate at the configured bound
// with all findings collected.
func (a *Analyzer) repairVerifier(ctx context.Context, p *Program, workers int) func(*isa.Program) (pitchfork.Report, error) {
	return func(ip *isa.Program) (pitchfork.Report, error) {
		q := p.withProg(ip)
		opts := pitchfork.Options{
			Bound:          a.cfg.Bound,
			ForwardHazards: a.cfg.ForwardHazards,
			Workers:        workers,
		}
		if a.cfg.StaticPass {
			// The hints must match the candidate's address space, so the
			// (linear) pre-analysis reruns per rewritten program; a
			// pre-analysis error just forfeits the pruning.
			if srep, err := staticAnalyze(q); err == nil {
				opts.Prune = pruneHints(srep)
			}
		}
		rep, err := a.detect(ctx, q, opts)
		if err != nil {
			return rep, err
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return rep, ctxErr
		}
		return rep, nil
	}
}

// repairResultOf lifts an engine result into the wire schema,
// remapping the CTL function-entry table of the repaired program
// through the patch plan's address map.
func repairResultOf(a *Analyzer, p *Program, res *repair.Result) *RepairResult {
	funcs := make(map[string]Addr, len(p.funcs))
	for name, addr := range p.funcs {
		funcs[name] = res.MapTarget(addr)
	}
	repaired := p.withProg(res.Prog)
	repaired.funcs = funcs
	strategy := res.Strategy
	if res.Outcome == repair.OutcomeClean {
		strategy = ""
	}
	out := &RepairResult{
		Outcome:     res.Outcome.String(),
		Strategy:    strategy,
		Program:     repaired,
		Sites:       append([]Addr(nil), res.Sites...),
		FencePoints: append([]Addr(nil), res.Fences...),
		Cost:        repairCostOf(p, res),
		Before:      reportOf(res.Before, a.cfg.Bound, a.cfg.ForwardHazards),
		After:       reportOf(res.After, a.cfg.Bound, a.cfg.ForwardHazards),
	}
	for _, attempt := range res.PerStrategy {
		out.PerStrategy = append(out.PerStrategy, StrategyCost{
			Strategy: attempt.Strategy,
			Outcome:  attempt.Outcome.String(),
			Cost:     repairCostOf(p, attempt),
		})
	}
	return out
}

// repairCostOf condenses one engine result (the chosen repair or a
// portfolio attempt) into the wire cost row.
func repairCostOf(p *Program, res *repair.Result) RepairCost {
	return RepairCost{
		Fences:            len(res.Sites),
		PreMinimizeFences: res.PreMinimizeFences,
		Inserted:          res.Inserted,
		Iterations:        res.Iterations,
		InstrBefore:       p.prog.Len(),
		InstrAfter:        res.Prog.Len(),
		SeqInstrsBefore:   res.SeqInstrsBefore,
		SeqInstrsAfter:    res.SeqInstrs,
		StatesBefore:      res.Before.States,
		StatesAfter:       res.After.States,
	}
}

// RepairBatchResult is the outcome for one RepairAll item. Exactly one
// of Result and Err is meaningful per item, except for context
// cancellation mid-repair, where a partial result may accompany the
// error.
type RepairBatchResult struct {
	Name   string
	Result *RepairResult
	Err    error
}

// RepairAll repairs a corpus of programs, fanning the items across
// the analyzer's worker pool: up to WithWorkers repairs run
// concurrently, each with single-goroutine verification (corpus-level
// fan-out parallelizes strictly better than splitting each small
// exploration). Results are returned in input order. Cancelling the
// context stops new items from starting and aborts running ones.
func (a *Analyzer) RepairAll(ctx context.Context, items []BatchItem) []RepairBatchResult {
	results, errs := fanOut(ctx, items, a.cfg.Workers, func(ctx context.Context, p *Program) (*RepairResult, error) {
		return a.repairWith(ctx, p, 1)
	})
	out := make([]RepairBatchResult, len(items))
	for i, it := range items {
		out[i] = RepairBatchResult{Name: it.Name, Result: results[i], Err: errs[i]}
	}
	return out
}

// withProg returns a Program sharing p's register seeds and symbolic
// bindings but carrying a different instruction/data image — how the
// repair engine rebuilds machines for rewritten candidates. The CTL
// address tables are shared as-is; callers exposing a rewritten
// program publicly must remap funcs (see repairResultOf).
func (p *Program) withProg(ip *isa.Program) *Program {
	return &Program{
		prog:    ip,
		regs:    p.regs,
		symRegs: p.symRegs,
		symMem:  p.symMem,
		globals: p.globals,
		funcs:   p.funcs,
	}
}
