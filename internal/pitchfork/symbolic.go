// The symbolic value domain of the unified speculation engine.
//
// Symbolic analysis carries neither its own exploration loop nor its
// own copy of the step rules. internal/sched's domain-parameterized
// engine drives the §4.1 worst-case schedule strategy, and the
// semantics' value-independent rules — fetch with the call and ret
// expansions, register resolve, the forwarding-store search, store
// resolution with its hazard scan, jump settle, retire, and transient
// hashing — are core.Pipeline's, instantiated over symbolic
// expressions. This file adds only what is symbolic: labeled
// expressions in registers and memory, evaluating ops by building
// expressions, path conditions from resolved input-dependent branches,
// and angr-style leak-hunting address concretization (§4.2). The
// engine's work-stealing pool, fingerprint dedup, budgets, and
// deterministic violation merging apply to symbolic runs exactly as to
// concrete ones.
//
// Like the original tool, the symbolic domain exercises a subset of
// the semantics: conditional-branch speculation and store-forwarding
// variants (Spectre v1, v1.1, v4), with indirect jumps and returns
// followed architecturally. The §3.5 aliasing predictor (execute
// i : fwd j) is outside it and stalls. An input-dependent branch
// forks the exploration into every feasible world (a domain-level
// fork the engine handles uniformly); a symbolic indirect-jump target
// ends the path, as it is outside the modeled subset.
package pitchfork

import (
	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/sched"
	"pitchfork/internal/symx"
)

// SymMachine is the initial configuration for a symbolic analysis:
// registers and memory hold symbolic expressions; unconstrained
// attacker inputs and secrets are symx variables.
type SymMachine struct {
	Prog *isa.Program
	Regs map[isa.Reg]symx.Expr
	Mem  *symx.Memory
	PC   isa.Addr
}

// NewSym builds a symbolic initial configuration from a program,
// seeding memory with the (labeled, concrete) data image.
func NewSym(prog *isa.Program) *SymMachine {
	m := &SymMachine{
		Prog: prog,
		Regs: make(map[isa.Reg]symx.Expr),
		Mem:  symx.NewMemory(),
		PC:   prog.Entry,
	}
	for a, v := range prog.Data {
		m.Mem.Write(a, symx.C(v))
	}
	return m
}

// SetReg binds a register to an expression.
func (m *SymMachine) SetReg(r isa.Reg, e symx.Expr) *SymMachine {
	m.Regs[r] = e
	return m
}

// SetMem binds a memory cell to an expression.
func (m *SymMachine) SetMem(a mem.Word, e symx.Expr) *SymMachine {
	m.Mem.Write(a, e)
	return m
}

// symMachine is the symbolic domain: one speculative machine
// configuration over expressions, implementing sched.Machine. The
// solver and concretizer are shared across clones — they are
// stateless per query (each answer is a function of the query alone),
// so concurrent exploration workers may use them without coordination.
//
// The configuration is copy-on-write end to end: registers and memory
// are overlay chains (symx.RegFile / symx.Memory), and the pipeline's
// reorder buffer and RSB journal share their tails — so Clone is O(1)
// and each fork pays only for what it subsequently changes.
type symMachine struct {
	pipe  core.Pipeline[symx.Expr]
	regs  *symx.RegFile
	mem   *symx.Memory
	pcond symx.PathCondition

	solver *symx.Solver
	concr  *symx.Concretizer

	// succ is the single-successor scratch self() returns, so
	// deterministic steps stay allocation-free (see sched.Machine.Step's
	// validity contract).
	succ [1]sched.Successor
}

// newSymMachine lowers an initial configuration into the domain.
func newSymMachine(m *SymMachine) *symMachine {
	solver := symx.NewSolver()
	s := &symMachine{
		regs:   symx.NewRegFile(),
		mem:    m.Mem.Clone(),
		solver: solver,
		concr:  symx.NewConcretizer(solver),
	}
	s.pipe = core.NewPipeline[symx.Expr](m.Prog, core.NewRSB(core.RSBAttackerChoice), s)
	s.pipe.PC = m.PC
	for r, e := range m.Regs {
		s.regs.Write(r, e)
	}
	return s
}

// Clone implements sched.Machine in O(1). Expressions are immutable
// and shared; registers, memory, RSB, and the reorder buffer fork
// copy-on-write; the path-condition prefix is shared (With copies on
// extension); solver and concretizer are shared by design.
func (s *symMachine) Clone() sched.Machine {
	c := &symMachine{
		regs:   s.regs.Clone(),
		mem:    s.mem.Clone(),
		pcond:  s.pcond,
		solver: s.solver,
		concr:  s.concr,
	}
	c.pipe = s.pipe.Fork(c)
	return c
}

// Imm, ReadReg, WriteReg, and WriteMem make the machine its pipeline's
// core.Domain: immediates become constants, an unset register reads as
// the canonical zero expression (no allocation on the resolve hot
// path), and retirement commits to the copy-on-write register file and
// memory.
func (s *symMachine) Imm(v mem.Value) symx.Expr { return symx.C(v) }

func (s *symMachine) ReadReg(r isa.Reg) symx.Expr {
	if e, ok := s.regs.Read(r); ok {
		return e
	}
	return symx.Zero
}

func (s *symMachine) WriteReg(r isa.Reg, e symx.Expr) { s.regs.Write(r, e) }

func (s *symMachine) WriteMem(a mem.Word, e symx.Expr) { s.mem.Write(a, e) }

// ---------------------------------------------------------------------
// Shape accessors (sched.Machine).
// ---------------------------------------------------------------------

func (s *symMachine) PC() isa.Addr { return s.pipe.PC }

func (s *symMachine) Instr() (isa.Instr, bool) { return s.pipe.Prog.At(s.pipe.PC) }

func (s *symMachine) RetiredCount() int { return s.pipe.Retired }

func (s *symMachine) BufLen() int { return s.pipe.Buf.Len() }

func (s *symMachine) BufMin() int { return s.pipe.Buf.Min() }

func (s *symMachine) BufMax() int { return s.pipe.Buf.Max() }

func (s *symMachine) View(i int) (sched.TransientView, bool) {
	t, ok := s.pipe.Buf.Get(i)
	if !ok {
		return sched.TransientView{}, false
	}
	return sched.TransientView{
		Kind:      t.Kind,
		Resolved:  t.Resolved(),
		ValKnown:  t.ValKnown,
		AddrKnown: t.AddrKnown,
		PP:        t.PP,
		FwdSecret: t.Kind == core.TValue && t.FromLoad && t.Dep != core.NoDep && t.Val != nil && t.Val.Label().IsSecret(),
	}, true
}

func (s *symMachine) RSBTop() (isa.Addr, bool) { return s.pipe.RSB.Top() }

// PeekJmpi resolves an indirect jump's architectural target; a target
// that stays symbolic is outside the modeled subset, so ok is false
// and the engine falls through to draining pending work.
func (s *symMachine) PeekJmpi(in isa.Instr) (isa.Addr, bool) {
	args, ok := s.pipe.ResolveOperands(s.BufMax()+1, in.Args)
	if !ok {
		return 0, false
	}
	tv, ok := addrExpr(args).Concrete()
	if !ok {
		return 0, false
	}
	return tv.W, true
}

// PeekRet predicts through the in-memory return address when the RSB
// is empty, like the concrete machine.
func (s *symMachine) PeekRet() (isa.Addr, bool) {
	sp, ok := s.pipe.ResolveReg(s.BufMax()+1, mem.RSP)
	if !ok {
		return 0, false
	}
	sv, ok := sp.Concrete()
	if !ok {
		return 0, false
	}
	tv, ok := s.mem.Read(sv.W).Concrete()
	if !ok {
		return 0, false
	}
	return tv.W, true
}

// Witness solves the path condition for a satisfying assignment of
// the symbolic inputs — the model each violation carries.
func (s *symMachine) Witness() map[string]uint64 {
	env, ok := s.solver.Solve(s.pcond)
	if !ok {
		return nil
	}
	out := make(map[string]uint64, len(env))
	for k, w := range env {
		out[k] = uint64(w)
	}
	return out
}

// Fingerprint hashes the symbolic configuration to 64 bits; equal
// configurations hash equal, which enables the engine's dedup table.
// Registers and memory contribute the order-independent sums their
// copy-on-write containers maintain incrementally. The path condition
// is part of the configuration: equal machine state under different
// constraints has different feasible futures.
func (s *symMachine) Fingerprint() uint64 {
	return s.pipe.Hash(exprHash, s.regs.HashSum(), s.mem.HashSum(), s.pcond.Fingerprint())
}

// exprHash is the structural expression hash shared with the solver's
// cache keys, with nil (an unset value field) hashing to a sentinel.
func exprHash(e symx.Expr) uint64 {
	if e == nil {
		return 5
	}
	return symx.Fingerprint(e)
}

// ---------------------------------------------------------------------
// Directive application (sched.Machine.Step).
// ---------------------------------------------------------------------

// applyArgs is symx.Apply for scratch-backed argument slices: Apply's
// default (unsimplified) path keeps the caller's slice as Op.Args, so
// when the result still aliases args — detected by element pointer
// identity — the slice is copied out of the pipeline's operand scratch
// before the expression escapes into long-lived state (transients,
// path conditions). Simplified results never alias and cost nothing
// extra.
func applyArgs(op isa.Opcode, args []symx.Expr) symx.Expr {
	e := symx.Apply(op, args...)
	if o, ok := e.(symx.Op); ok && len(args) > 0 && len(o.Args) == len(args) && &o.Args[0] == &args[0] {
		fresh := make([]symx.Expr, len(args))
		copy(fresh, args)
		o.Args = fresh
		return o
	}
	return e
}

// addrExpr needs no retention copy: symx.Apply's OpAdd simplification
// always rebuilds the operand list it keeps.
func addrExpr(args []symx.Expr) symx.Expr {
	return symx.Apply(isa.OpAdd, args...)
}

// self wraps the in-place-mutated receiver as the single successor,
// reusing the machine's scratch slot, or passes a stall through.
func (s *symMachine) self(d core.Directive, obs []core.Observation, err error) ([]sched.Successor, error) {
	if err != nil {
		return nil, err
	}
	s.succ[0] = sched.Successor{M: s, D: d, Obs: obs}
	return s.succ[:], nil
}

// Step implements sched.Machine: one directive of the speculative
// semantics over symbolic state. Deterministic steps mutate the
// receiver; an input-dependent branch resolution returns one cloned
// successor per feasible world.
func (s *symMachine) Step(d core.Directive) ([]sched.Successor, error) {
	switch d.Kind {
	case core.DFetch, core.DFetchGuess, core.DFetchTarget:
		return s.self(d, nil, s.pipe.Fetch(d))
	case core.DExecute:
		return s.stepExecute(d)
	case core.DExecValue:
		return s.self(d, nil, s.pipe.StoreValue(d))
	case core.DExecAddr:
		return s.stepExecAddr(d)
	case core.DRetire:
		obs, err := s.pipe.Retire(d)
		return s.self(d, obs, err)
	}
	return nil, core.Stall(d, "directive not in the symbolic subset")
}

func (s *symMachine) stepExecute(d core.Directive) ([]sched.Successor, error) {
	t, err := s.pipe.Pending(d)
	if err != nil {
		return nil, err
	}
	args, err := s.pipe.Operands(d, t.Args)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case core.TOp:
		s.pipe.Buf.SetT(d.I, core.TransientOf[symx.Expr]{Kind: core.TValue, Dst: t.Dst, Val: applyArgs(t.Op, args)})
		return s.self(d, nil, nil)
	case core.TBr:
		return s.execBranch(d, t, applyArgs(t.Op, args))
	case core.TJmpi:
		ae := addrExpr(args)
		tv, ok := ae.Concrete()
		if !ok {
			return nil, core.Stall(d, "symbolic indirect target: outside the modeled subset")
		}
		return s.self(d, s.pipe.Settle(d.I, tv.W, ae.Label()), nil)
	case core.TLoad:
		return s.execLoad(d, addrExpr(args))
	}
	return nil, core.Stall(d, "index %d (%s) has no execute rule", d.I, t)
}

// execBranch resolves a delayed conditional branch. A concrete
// condition settles like the concrete machine; an input-dependent one
// forks into each feasible world, extending the path condition and
// recording the arm in the directive's Arm field so every completed
// path keeps a distinct (and distinctly rendered) schedule.
func (s *symMachine) execBranch(d core.Directive, t *core.TransientOf[symx.Expr], cond symx.Expr) ([]sched.Successor, error) {
	if cv, ok := cond.Concrete(); ok {
		actual := t.False
		if cv.W != 0 {
			actual = t.True
		}
		return s.self(d, s.pipe.Settle(d.I, actual, cv.L), nil)
	}
	// Plan the feasible worlds before touching any state, then reuse
	// the receiver for the last arm (cloning only N-1 times).
	type armPlan struct {
		taken bool
		pcond symx.PathCondition
	}
	var plans []armPlan
	for _, taken := range []bool{true, false} {
		pc := s.pcond.With(symx.Constraint{E: cond, Truthy: taken})
		if s.solver.Feasible(pc) {
			plans = append(plans, armPlan{taken: taken, pcond: pc})
		}
	}
	if len(plans) == 0 {
		return nil, core.Stall(d, "branch condition infeasible in both worlds")
	}
	succs := make([]sched.Successor, len(plans))
	for k, p := range plans {
		arm := s
		if k < len(plans)-1 {
			arm = s.Clone().(*symMachine)
		}
		arm.pcond = p.pcond
		actual := t.False
		ad := d
		ad.Arm = core.ArmNotTaken
		if p.taken {
			actual = t.True
			ad.Arm = core.ArmTaken
		}
		succs[k] = sched.Successor{M: arm, D: ad, Obs: arm.pipe.Settle(d.I, actual, cond.Label())}
	}
	return succs, nil
}

// execLoad resolves a load whose address expression is ae. The
// address is concretized and the forwarding search run before the
// path condition records the concretization, so a stall leaves the
// machine unchanged.
func (s *symMachine) execLoad(d core.Directive, ae symx.Expr) ([]sched.Successor, error) {
	aw, ok := s.concr.Concretize(ae, s.pcond, s.mem)
	if !ok {
		return nil, core.Stall(d, "load address concretization failed")
	}
	j, v, err := s.pipe.Forwarder(d, aw)
	if err != nil {
		return nil, err
	}
	s.pin(ae, aw)
	if j == core.NoDep {
		v = s.mem.Read(aw)
	}
	return s.self(d, s.pipe.ResolveLoad(d.I, v, j, mem.Value{W: aw, L: ae.Label()}), nil)
}

func (s *symMachine) stepExecAddr(d core.Directive) ([]sched.Successor, error) {
	args, err := s.pipe.StoreAddrOperands(d)
	if err != nil {
		return nil, err
	}
	ae := addrExpr(args)
	aw, ok := s.concretizeStore(d.I, ae)
	if !ok {
		return nil, core.Stall(d, "store address concretization failed")
	}
	s.pin(ae, aw)
	return s.self(d, s.pipe.ResolveStoreAddr(d.I, mem.Value{W: aw, L: ae.Label()}), nil)
}

// pin extends the path condition with ae = aw when a symbolic address
// expression was concretized to aw.
func (s *symMachine) pin(ae symx.Expr, aw mem.Word) {
	if _, concrete := ae.Concrete(); !concrete {
		s.pcond = s.pcond.With(symx.Constraint{E: symx.Apply(isa.OpEq, ae, symx.CW(aw)), Truthy: true})
	}
}

// concretizeStore pins a store's symbolic address. The leak-hunting
// policy differs from loads: a store is interesting when it *aliases*
// a later load (the Spectre v1.1 shape of Figure 6), so the
// concretizer first tries the addresses of younger loads in the
// buffer, then secret cells, then any model — mirroring how angr's
// pluggable concretization strategies are used for targeted hunting.
func (s *symMachine) concretizeStore(i int, ae symx.Expr) (mem.Word, bool) {
	if v, ok := ae.Concrete(); ok {
		return v.W, true
	}
	seen := make(map[mem.Word]bool)
	for k := i + 1; k <= s.BufMax(); k++ {
		ld, _ := s.pipe.Buf.Get(k)
		if ld.Kind != core.TLoad {
			continue
		}
		largs, ok := s.pipe.ResolveOperands(k, ld.Args)
		if !ok {
			continue
		}
		lv, ok := addrExpr(largs).Concrete()
		if !ok || seen[lv.W] {
			continue
		}
		seen[lv.W] = true
		if _, ok := s.solver.SolveWith(s.pcond, ae, lv.W); ok {
			return lv.W, true
		}
	}
	return s.concr.Concretize(ae, s.pcond, s.mem)
}

// ---------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------

// AnalyzeSymbolic runs the symbolic-mode detector on the unified
// engine: the same worst-case schedule strategy, worker pool, dedup
// table, and budgets as concrete mode, over the symbolic domain. A
// solver query that ended unknown makes the report inconclusive.
func AnalyzeSymbolic(m *SymMachine, opts Options) (Report, error) {
	sm := newSymMachine(m)
	rep, err := analyze(sm, "symbolic", opts)
	if err != nil {
		return Report{}, err
	}
	stats := sm.solver.Stats()
	rep.Truncated = rep.Truncated || stats.Unknowns > 0
	rep.Solver = &stats
	return rep, nil
}
