package spectre

import (
	"fmt"
	"runtime"
)

// The speculation bounds of the paper's §4.2.1 evaluation procedure.
const (
	// BoundNoHazards is the bound used without forwarding-hazard
	// detection (phase 1).
	BoundNoHazards = 250
	// BoundWithHazards is the reduced bound that keeps hazard-aware
	// analysis tractable (phase 2).
	BoundWithHazards = 20
	// DefaultBound is the bound an Analyzer uses when WithBound is not
	// given: the tractable hazard-aware bound.
	DefaultBound = BoundWithHazards
)

// Option configures an Analyzer. Options are a thin layer over the
// serializable Config struct: each one validates its argument and sets
// the corresponding field, so New(opts…) and NewFromConfig(cfg) are
// two spellings of the same construction.
type Option func(*Config) error

// WithBound sets the speculation bound: the maximum reorder-buffer
// size, hence the maximum speculation depth. The paper's evaluation
// uses 250 without forwarding-hazard detection and 20 with it. The
// bound must be positive.
func WithBound(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("spectre: speculation bound must be positive, got %d", n)
		}
		c.Bound = n
		return nil
	}
}

// WithForwardHazards enables or disables exploration of
// store-forwarding outcomes (Spectre v4 and the paper's "f" findings).
// It is enabled by default; disabling it makes deep bounds like
// BoundNoHazards tractable.
func WithForwardHazards(on bool) Option {
	return func(c *Config) error {
		c.ForwardHazards = on
		return nil
	}
}

// WithMaxStates bounds the number of explored machine states per
// exploration. Zero restores the exploration default of 200,000
// states; negative is rejected. A run that exhausts the budget is
// reported Truncated.
func WithMaxStates(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("spectre: max states must be non-negative, got %d", n)
		}
		c.MaxStates = n
		return nil
	}
}

// WithMaxRetired bounds the retired instructions per exploration path
// (the budget that terminates non-halting programs). Zero restores the
// default; negative is rejected.
func WithMaxRetired(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("spectre: max retired must be non-negative, got %d", n)
		}
		c.MaxRetired = n
		return nil
	}
}

// WithStopAtFirst stops each run at the first finding.
func WithStopAtFirst(on bool) Option {
	return func(c *Config) error {
		c.StopAtFirst = on
		return nil
	}
}

// WithSymbolic switches the analyzer to symbolic mode: registers and
// memory cells bound with the builder's Symbolic* methods become
// unconstrained solver variables, execution tracks path conditions and
// forks at input-dependent branches, and each finding carries a
// witness assignment. Like the original tool, symbolic mode covers
// conditional-branch speculation and store-forwarding variants
// (Spectre v1, v1.1, v4), with computed control flow followed
// architecturally.
func WithSymbolic(on bool) Option {
	return func(c *Config) error {
		c.Symbolic = on
		return nil
	}
}

// WithWorkers sets the number of exploration goroutines. 1 (the
// default) runs the classic serial depth-first exploration; n > 1 runs
// a work-stealing pool over the schedule tree, with findings reported
// in deterministic schedule order rather than discovery order; 0
// selects runtime.NumCPU(). The setting applies to concrete and
// symbolic mode alike — both run on the same domain-parameterized
// engine, and the symbolic solver answers each query as a function of
// the query alone, so parallel symbolic findings (witness models
// included) reproduce the serial run's exactly. Full parallel explorations are fully deterministic;
// runs cut short early (WithStopAtFirst, cancellation, a stopping
// Stream callback, or a MaxStates truncation) depend on how far
// workers got before the stop propagated, so their state/path counts
// — and, under WithStopAtFirst, which single finding is reported —
// may vary between runs. The same setting sizes the fan-out of
// AnalyzeBatch/RunAll.
func WithWorkers(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return fmt.Errorf("spectre: workers must be non-negative, got %d", n)
		}
		if n == 0 {
			n = runtime.NumCPU()
		}
		c.Workers = n
		return nil
	}
}

// WithStaticPass runs the flow-sensitive speculative-taint
// pre-analysis (internal/taint) before exploration. A program the
// static pass proves safe is certified without constructing an
// explorer — Report.Mode is ModeStatic and Report.Static carries the
// verdict; O(|program|) instead of O(schedules). A program it cannot
// prove safe is explored as usual in hybrid mode: the static verdicts
// become pruning hints that let the engine skip speculation forks
// whose whole subtree is provably violation-free. Findings are
// identical with and without the pass (the pre-analysis
// over-approximates every transient execution); only States and Paths
// shrink. Off by default.
func WithStaticPass(on bool) Option {
	return func(c *Config) error {
		c.StaticPass = on
		return nil
	}
}

// WithRepairStrategy selects the mitigation Repair and RepairAll
// synthesize: StrategyFence (the paper's §3.6 fences), StrategyMask
// (SLH-style speculative load hardening), StrategyRet (Figure 13
// retpolines for flagged returns), or StrategyAuto (the default) to
// run the whole portfolio and keep the cheapest certified patch by
// estimated sequential cost. Whatever the strategy, every patch is
// re-verified secret-free by the configured detector and certified
// behaviour-preserving modulo the rewrite's address map.
func WithRepairStrategy(s string) Option {
	return func(c *Config) error {
		switch s {
		case StrategyAuto, StrategyFence, StrategyMask, StrategyRet:
			c.RepairStrategy = s
			return nil
		}
		return fmt.Errorf("spectre: unknown repair strategy %q (want auto, fence, mask or ret)", s)
	}
}

// WithDedup bounds a machine-fingerprint table at maxEntries states;
// exploration states whose full configuration (PC, registers, memory,
// reorder buffer, RSB — and, in symbolic mode, the path condition)
// was already visited are pruned. Many forwarding-fork arms
// reconverge, so dedup cuts explored states independently of
// parallelism — at the price of exactness: Paths shrinks, schedules
// for pruned duplicates are not enumerated, and a 64-bit fingerprint
// collision could in principle prune a genuinely new state. The
// distinct-finding set is preserved (every pruned state's future is
// explored from its first-visited twin). 0 (the default) disables
// deduplication. Works in both concrete and symbolic mode.
func WithDedup(maxEntries int) Option {
	return func(c *Config) error {
		if maxEntries < 0 {
			return fmt.Errorf("spectre: dedup entries must be non-negative, got %d", maxEntries)
		}
		c.DedupEntries = maxEntries
		return nil
	}
}
