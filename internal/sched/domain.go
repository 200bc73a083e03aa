// The domain interface of the speculation engine. The §4.1 worst-case
// schedule strategy is one algorithm instantiated over two value
// domains: the concrete reference machine of internal/core, and the
// symbolic machine of internal/pitchfork. Everything the strategy
// needs — fetchability, reorder-buffer shape, speculation-source and
// resolution flags, directive application — is expressed through the
// Machine interface below, so the serial and work-stealing drivers,
// the fingerprint dedup table, the exploration budgets, and the
// deterministic violation merge apply to every domain uniformly.
package sched

import (
	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// TransientView is the domain-independent projection of one
// reorder-buffer entry: exactly the fields the schedule strategy, the
// speculation-source collector, and the variant classifier consult.
// How the entry's values are represented (labeled words, symbolic
// expressions) stays inside the domain.
type TransientView struct {
	// Kind is the transient form, in the concrete semantics' vocabulary
	// (both domains implement Table 1's transient column).
	Kind core.TKind
	// Resolved reports whether the entry needs no further execute steps
	// before it can retire.
	Resolved bool
	// ValKnown and AddrKnown are the store resolution flags (execute
	// i : value / execute i : addr each resolve one half).
	ValKnown  bool
	AddrKnown bool
	// PP is the program point the instruction was fetched at.
	PP isa.Addr
	// FwdSecret marks a resolved load that forwarded secret-labeled
	// data from a buffered store — the classifier's v1.1 signal.
	FwdSecret bool
}

// Successor is one outcome of applying a directive. Deterministic
// steps yield exactly one successor (usually the receiver, mutated in
// place). A domain may fork on a single directive — the symbolic
// domain forks a branch whose condition is input-dependent into every
// feasible world — in which case each successor is an independent
// clone and D disambiguates the arm (compareDirectives orders on it),
// keeping parallel-merge schedule keys unique per completed path.
type Successor struct {
	// M is the machine after the step.
	M Machine
	// D is the directive as recorded in the schedule for this arm.
	D core.Directive
	// Obs are the observations the step produced.
	Obs []core.Observation
}

// Machine abstracts a speculative machine configuration the engine
// drives: a value domain instantiating the paper's directive
// semantics. Implementations are mutable; Clone forks them at
// exploration fork points. All scheduling policy lives in the engine —
// a Machine only applies single directives and reports its shape.
// Both domains embed a core.Pipeline: one reorder buffer type and one
// set of value-independent step rules (fetch, register resolve,
// forwarding search, store resolution with its hazard scan, jump
// settle, retire), with only value evaluation, branch resolution,
// memory reads and faults left to the domain. The engine sees the
// buffer only through BufMin, BufMax and View, and finds the first
// fence in the same forward scan that picks the next directive.
type Machine interface {
	// Clone returns an independent deep copy.
	Clone() Machine
	// PC returns the fetch head.
	PC() isa.Addr
	// Instr returns the instruction at the fetch head, if any; ok ==
	// false means the PC is a halt point.
	Instr() (isa.Instr, bool)
	// RetiredCount returns the number of retired instructions (the
	// MaxRetired budget input).
	RetiredCount() int
	// BufLen, BufMin, and BufMax describe the reorder buffer's
	// contiguous index range; for an empty buffer BufMax < BufMin,
	// with BufMax+1 the next insertion index.
	BufLen() int
	BufMin() int
	BufMax() int
	// View projects the buffer entry at index i.
	View(i int) (TransientView, bool)
	// RSBTop reports top(σ), the return-stack prediction, if present.
	RSBTop() (isa.Addr, bool)
	// PeekJmpi resolves the architectural target of an indirect jump
	// about to be fetched, if its operands (and, symbolically, its
	// target value) are available.
	PeekJmpi(in isa.Instr) (isa.Addr, bool)
	// PeekRet resolves the architectural return target through the
	// in-memory return address, for rets fetched under an empty RSB.
	PeekRet() (isa.Addr, bool)
	// Fingerprint hashes the full configuration (for the symbolic
	// domain: including the path condition) to 64 bits; equal
	// configurations hash equal, so the dedup table can prune
	// re-converged exploration states.
	Fingerprint() uint64
	// Witness returns a satisfying assignment of the domain's symbolic
	// inputs reaching the current state, or nil (always nil for the
	// concrete domain, where the inputs are the given ones).
	Witness() map[string]uint64
	// Step applies one directive. A nil error means it applied, with
	// the successor states returned; an error means the directive
	// stalls in this configuration and the machine is unchanged. The
	// returned slice is only valid until the next Step call on any
	// machine of this lineage — implementations may return an internal
	// scratch buffer so deterministic steps stay allocation-free.
	Step(d core.Directive) ([]Successor, error)
}

// Concrete wraps a core.Machine as the engine's concrete domain. The
// machine is driven in place; callers hand over ownership.
func Concrete(m *core.Machine) Machine { return &concreteMachine{m: m} }

// concreteMachine adapts *core.Machine: every directive is a single
// deterministic successor (the paper's small-step relation), and the
// views project the Transient structs directly. succ is the
// single-successor scratch Step returns, so the hot path performs no
// per-step slice allocation.
type concreteMachine struct {
	m    *core.Machine
	succ [1]Successor
}

func (c *concreteMachine) Clone() Machine { return &concreteMachine{m: c.m.Clone()} }

func (c *concreteMachine) PC() isa.Addr { return c.m.PC }

func (c *concreteMachine) Instr() (isa.Instr, bool) { return c.m.Prog.At(c.m.PC) }

func (c *concreteMachine) RetiredCount() int { return c.m.Retired }

func (c *concreteMachine) BufLen() int { return c.m.Buf.Len() }

func (c *concreteMachine) BufMin() int { return c.m.Buf.Min() }

func (c *concreteMachine) BufMax() int { return c.m.Buf.Max() }

func (c *concreteMachine) View(i int) (TransientView, bool) {
	t, ok := c.m.Buf.Get(i)
	if !ok {
		return TransientView{}, false
	}
	return TransientView{
		Kind:      t.Kind,
		Resolved:  t.Resolved(),
		ValKnown:  t.ValKnown,
		AddrKnown: t.AddrKnown,
		PP:        t.PP,
		FwdSecret: t.Kind == core.TValue && t.FromLoad && t.Dep != core.NoDep && t.Val.IsSecret(),
	}, true
}

func (c *concreteMachine) RSBTop() (isa.Addr, bool) { return c.m.RSB.Top() }

func (c *concreteMachine) PeekJmpi(in isa.Instr) (isa.Addr, bool) {
	vals, ok := c.m.ResolveOperands(c.m.Buf.Max()+1, in.Args)
	if !ok {
		return 0, false
	}
	v, err := isa.EvalAddr(c.m.AddrMode, vals)
	if err != nil {
		return 0, false
	}
	return v.W, true
}

func (c *concreteMachine) PeekRet() (isa.Addr, bool) {
	sp, ok := c.m.ResolveReg(c.m.Buf.Max()+1, mem.RSP)
	if !ok {
		return 0, false
	}
	v, err := c.m.Mem.Read(sp.W)
	if err != nil {
		return 0, false
	}
	return v.W, true
}

func (c *concreteMachine) Fingerprint() uint64 { return c.m.Fingerprint() }

func (c *concreteMachine) Witness() map[string]uint64 { return nil }

func (c *concreteMachine) Step(d core.Directive) ([]Successor, error) {
	obs, err := c.m.Step(d)
	if err != nil {
		return nil, err
	}
	c.succ[0] = Successor{M: c, D: d, Obs: obs}
	return c.succ[:], nil
}
