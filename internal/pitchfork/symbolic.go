// The symbolic value domain of the unified speculation engine.
//
// Symbolic analysis no longer carries its own fetch/execute/retire
// exploration loop: internal/sched's domain-parameterized engine
// drives the §4.1 worst-case schedule strategy, and this file only
// implements the sched.Machine contract over symbolic state — labeled
// expressions in registers and memory, path conditions from resolved
// input-dependent branches, and angr-style leak-hunting address
// concretization (§4.2). The engine's work-stealing pool, fingerprint
// dedup, budgets, and deterministic violation merging therefore apply
// to symbolic runs exactly as to concrete ones. The reorder buffer is
// shared code too: core.Buffer instantiated over symbolic transients,
// with the concrete domain's copy-on-write cloning, entry arena and
// fence side condition.
//
// Like the original tool, the symbolic domain exercises a subset of
// the semantics: conditional-branch speculation and store-forwarding
// variants (Spectre v1, v1.1, v4), with indirect jumps and returns
// followed architecturally. An input-dependent branch forks the
// exploration into every feasible world (a domain-level fork the
// engine handles uniformly); a symbolic indirect-jump target ends the
// path, as it is outside the modeled subset.
package pitchfork

import (
	"fmt"

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

// symStall reports a non-applicable directive; the engine treats any
// step error as a stall and ends (or redirects) the path.
func symStall(format string, args ...any) error {
	return fmt.Errorf("pitchfork: symbolic stall: "+format, args...)
}

// symTransient mirrors the subset of transient instructions the
// symbolic domain handles (Table 1 minus aliasing prediction, like
// the original tool).
type symTransient struct {
	kind core.TKind
	dst  isa.Reg
	op   isa.Opcode
	args []isa.Operand

	val      symx.Expr // resolved value
	fromLoad bool
	dep      int
	dataAddr mem.Word
	pp       isa.Addr

	guess, tTrue, tFalse isa.Addr
	target               isa.Addr

	src       isa.Operand
	valKnown  bool
	sval      symx.Expr
	addrKnown bool
	saddr     mem.Word
	saddrL    mem.Label
}

// IsFence implements core.Entry: the shared reorder buffer's execute
// side condition.
func (t *symTransient) IsFence() bool { return t.kind == core.TFence }

func (t *symTransient) resolved() bool {
	switch t.kind {
	case core.TValue, core.TJump, core.TFence, core.TCall, core.TRet:
		return true
	case core.TStore:
		return t.valKnown && t.addrKnown
	}
	return false
}

func (t *symTransient) assigns(r isa.Reg) bool {
	switch t.kind {
	case core.TOp, core.TValue, core.TLoad:
		return t.dst == r
	}
	return false
}

// symMachine is the symbolic domain: one speculative machine
// configuration over expressions, implementing sched.Machine. The
// solver and concretizer are shared across clones — they are
// stateless per query (each answer is a function of the query alone),
// so concurrent exploration workers may use them without coordination.
//
// The configuration is copy-on-write end to end: registers and memory
// are overlay chains (symx.RegFile / symx.Memory), the RSB journal
// shares its tail, and the reorder buffer is the concrete domain's
// core.Buffer over symbolic transients — so Clone is O(1) and each
// fork pays only for what it subsequently changes.
type symMachine struct {
	prog    *isa.Program
	regs    *symx.RegFile
	mem     *symx.Memory
	pc      isa.Addr
	buf     *core.Buffer[symTransient, *symTransient]
	rsb     *core.RSB
	pcond   symx.PathCondition
	retired int

	solver *symx.Solver
	concr  *symx.Concretizer

	// succ is the single-successor scratch self() returns, so
	// deterministic steps stay allocation-free (see sched.Machine.Step's
	// validity contract).
	succ [1]sched.Successor

	// argScratch is the operand-resolution scratch resolveArgs reuses
	// across steps; never shared (Clone leaves it nil) and never
	// retained (applyArgs copies when an expression would keep it).
	argScratch []symx.Expr
}

// newSymMachine lowers an initial configuration into the domain.
func newSymMachine(m *SymMachine) *symMachine {
	solver := symx.NewSolver()
	s := &symMachine{
		prog:   m.Prog,
		regs:   symx.NewRegFile(),
		mem:    m.Mem.Clone(),
		pc:     m.PC,
		buf:    core.NewBuffer[symTransient](),
		rsb:    core.NewRSB(core.RSBAttackerChoice),
		solver: solver,
		concr:  symx.NewConcretizer(solver),
	}
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
	return &symMachine{
		prog:    s.prog,
		regs:    s.regs.Clone(),
		mem:     s.mem.Clone(),
		pc:      s.pc,
		buf:     s.buf.Clone(),
		rsb:     s.rsb.Clone(),
		pcond:   s.pcond,
		retired: s.retired,
		solver:  s.solver,
		concr:   s.concr,
	}
}

// ---------------------------------------------------------------------
// Shape accessors (sched.Machine).
// ---------------------------------------------------------------------

func (s *symMachine) PC() isa.Addr { return s.pc }

func (s *symMachine) Instr() (isa.Instr, bool) { return s.prog.At(s.pc) }

func (s *symMachine) RetiredCount() int { return s.retired }

func (s *symMachine) BufLen() int { return s.buf.Len() }

func (s *symMachine) BufMin() int { return s.buf.Min() }

func (s *symMachine) BufMax() int { return s.buf.Max() }

func (s *symMachine) View(i int) (sched.TransientView, bool) {
	t, ok := s.buf.Get(i)
	if !ok {
		return sched.TransientView{}, false
	}
	return sched.TransientView{
		Kind:      t.kind,
		Resolved:  t.resolved(),
		ValKnown:  t.valKnown,
		AddrKnown: t.addrKnown,
		PP:        t.pp,
		FwdSecret: t.kind == core.TValue && t.fromLoad && t.dep != core.NoDep && t.val != nil && t.val.Label().IsSecret(),
	}, true
}

func (s *symMachine) RSBTop() (isa.Addr, bool) { return s.rsb.Top() }

// PeekJmpi resolves an indirect jump's architectural target; a target
// that stays symbolic is outside the modeled subset, so ok is false
// and the engine falls through to draining pending work.
func (s *symMachine) PeekJmpi(in isa.Instr) (isa.Addr, bool) {
	args, ok := s.resolveArgs(s.BufMax()+1, in.Args)
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
	sp, ok := s.resolveReg(s.BufMax()+1, mem.RSP)
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

// ---------------------------------------------------------------------
// Register/operand resolution over the speculative buffer.
// ---------------------------------------------------------------------

// resolveReg is the register resolve function (Fig. 3) lifted to
// expressions.
func (s *symMachine) resolveReg(i int, r isa.Reg) (symx.Expr, bool) {
	hi := s.BufMax()
	if i-1 < hi {
		hi = i - 1
	}
	for j := hi; j >= s.buf.Min(); j-- {
		t, _ := s.buf.Get(j)
		if !t.assigns(r) {
			continue
		}
		switch t.kind {
		case core.TValue:
			return t.val, true
		default:
			return nil, false
		}
	}
	if e, ok := s.regs.Read(r); ok {
		return e, true
	}
	// The canonical zero expression: boxing a fresh Const here made
	// every unset-register resolve an allocation (resolveReg is on the
	// operand-resolution hot path alongside resolveArgs).
	return symx.Zero, true
}

func (s *symMachine) resolveOperand(i int, o isa.Operand) (symx.Expr, bool) {
	if !o.IsReg {
		return symx.C(o.Imm), true
	}
	return s.resolveReg(i, o.Reg)
}

// resolveArgs resolves an operand list into the machine's scratch
// buffer — the engine's hottest allocation site before it was pooled.
// The returned slice is valid until the next resolveArgs call on this
// machine; callers that build an expression which may retain it must
// go through applyArgs.
func (s *symMachine) resolveArgs(i int, os []isa.Operand) ([]symx.Expr, bool) {
	if cap(s.argScratch) < len(os) {
		s.argScratch = make([]symx.Expr, len(os))
	}
	out := s.argScratch[:len(os)]
	for k, o := range os {
		e, ok := s.resolveOperand(i, o)
		if !ok {
			return nil, false
		}
		out[k] = e
	}
	return out, true
}

// applyArgs is symx.Apply for scratch-backed argument slices: Apply's
// default (unsimplified) path keeps the caller's slice as Op.Args, so
// when the result still aliases args — detected by element pointer
// identity — the slice is copied out of the scratch before the
// expression escapes into long-lived state (transients, path
// conditions). Simplified results never alias and cost nothing extra.
func (s *symMachine) applyArgs(op isa.Opcode, args []symx.Expr) symx.Expr {
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

// ---------------------------------------------------------------------
// Directive application (sched.Machine.Step).
// ---------------------------------------------------------------------

// self wraps the in-place-mutated receiver as the single successor,
// reusing the machine's scratch slot.
func (s *symMachine) self(d core.Directive, obs ...core.Observation) ([]sched.Successor, error) {
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
		return s.stepFetch(d)
	case core.DExecute:
		return s.stepExecute(d)
	case core.DExecValue:
		return s.stepExecValue(d)
	case core.DExecAddr:
		return s.stepExecAddr(d)
	case core.DRetire:
		return s.stepRetire(d)
	}
	return nil, symStall("directive %q not in the symbolic subset", d)
}

func (s *symMachine) stepFetch(d core.Directive) ([]sched.Successor, error) {
	in, ok := s.prog.At(s.pc)
	if !ok {
		return nil, symStall("nothing to fetch at halt point %d", s.pc)
	}
	switch in.Kind {
	case isa.KOp:
		if d.Kind != core.DFetch {
			return nil, symStall("%s requires a plain fetch", in.Kind)
		}
		s.buf.AppendT(symTransient{kind: core.TOp, dst: in.Dst, op: in.Op, args: in.Args, pp: s.pc})
		s.pc = in.Next
		return s.self(d)
	case isa.KLoad:
		if d.Kind != core.DFetch {
			return nil, symStall("%s requires a plain fetch", in.Kind)
		}
		s.buf.AppendT(symTransient{kind: core.TLoad, dst: in.Dst, args: in.Args, pp: s.pc})
		s.pc = in.Next
		return s.self(d)
	case isa.KStore:
		if d.Kind != core.DFetch {
			return nil, symStall("%s requires a plain fetch", in.Kind)
		}
		t := symTransient{kind: core.TStore, src: in.Src, args: in.Args, pp: s.pc}
		if !in.Src.IsReg {
			t.valKnown = true
			t.sval = symx.C(in.Src.Imm)
		}
		s.buf.AppendT(t)
		s.pc = in.Next
		return s.self(d)
	case isa.KFence:
		if d.Kind != core.DFetch {
			return nil, symStall("%s requires a plain fetch", in.Kind)
		}
		s.buf.AppendT(symTransient{kind: core.TFence, pp: s.pc})
		s.pc = in.Next
		return s.self(d)

	case isa.KBr:
		if d.Kind != core.DFetchGuess {
			return nil, symStall("br requires fetch: true/false")
		}
		guess := in.False
		if d.Taken {
			guess = in.True
		}
		s.buf.AppendT(symTransient{kind: core.TBr, op: in.Op, args: in.Args, guess: guess, tTrue: in.True, tFalse: in.False, pp: s.pc})
		s.pc = guess
		return s.self(d)

	case isa.KJmpi:
		if d.Kind != core.DFetchTarget {
			return nil, symStall("jmpi requires fetch: n")
		}
		s.buf.AppendT(symTransient{kind: core.TJmpi, args: in.Args, guess: d.Target, pp: s.pc})
		s.pc = d.Target
		return s.self(d)

	case isa.KCall:
		if d.Kind != core.DFetch {
			return nil, symStall("call requires a plain fetch")
		}
		i := s.buf.AppendT(symTransient{kind: core.TCall, pp: s.pc})
		s.buf.AppendT(symTransient{kind: core.TOp, dst: mem.RSP, op: isa.OpSucc, args: []isa.Operand{isa.R(mem.RSP)}, pp: s.pc})
		s.buf.AppendT(symTransient{
			kind: core.TStore, src: isa.Imm(mem.Pub(in.RetPt)),
			valKnown: true, sval: symx.CW(in.RetPt),
			args: []isa.Operand{isa.R(mem.RSP)},
			pp:   s.pc,
		})
		s.rsb.Push(i, in.RetPt)
		s.pc = in.Callee
		return s.self(d)

	case isa.KRet:
		target, haveTop := s.rsb.Top()
		if haveTop {
			if d.Kind != core.DFetch {
				return nil, symStall("ret with non-empty RSB requires a plain fetch")
			}
		} else {
			if d.Kind != core.DFetchTarget {
				return nil, symStall("ret with empty RSB requires fetch: n")
			}
			target = d.Target
		}
		retPt := s.pc
		i := s.buf.AppendT(symTransient{kind: core.TRet, pp: retPt})
		s.buf.AppendT(symTransient{kind: core.TLoad, dst: mem.RTMP, args: []isa.Operand{isa.R(mem.RSP)}, pp: retPt})
		s.buf.AppendT(symTransient{kind: core.TOp, dst: mem.RSP, op: isa.OpPred, args: []isa.Operand{isa.R(mem.RSP)}, pp: retPt})
		s.buf.AppendT(symTransient{kind: core.TJmpi, args: []isa.Operand{isa.R(mem.RTMP)}, guess: target, pp: retPt})
		s.rsb.Pop(i)
		s.pc = target
		return s.self(d)
	}
	return nil, symStall("unfetchable instruction kind %v", in.Kind)
}

func (s *symMachine) stepExecute(d core.Directive) ([]sched.Successor, error) {
	t, ok := s.buf.Get(d.I)
	if !ok {
		return nil, symStall("index %d not in buffer [%d,%d]", d.I, s.BufMin(), s.BufMax())
	}
	if s.buf.FenceBefore(d.I) {
		return nil, symStall("fence pending before index %d", d.I)
	}
	switch t.kind {
	case core.TOp:
		return s.execOp(d, t)
	case core.TBr:
		return s.execBranch(d, t)
	case core.TJmpi:
		return s.execJmpi(d, t)
	case core.TLoad:
		return s.execLoad(d, t)
	}
	return nil, symStall("index %d has no symbolic execute rule", d.I)
}

func (s *symMachine) execOp(d core.Directive, t *symTransient) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.args)
	if !ok {
		return nil, symStall("operands unresolved at %d", d.I)
	}
	s.buf.SetT(d.I, symTransient{kind: core.TValue, dst: t.dst, val: s.applyArgs(t.op, args)})
	return s.self(d)
}

// execBranch resolves a delayed conditional branch. A concrete
// condition settles like the concrete machine; an input-dependent one
// forks into each feasible world, extending the path condition and
// recording the arm in the directive's Arm field so every completed
// path keeps a distinct (and distinctly rendered) schedule.
func (s *symMachine) execBranch(d core.Directive, t *symTransient) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.args)
	if !ok {
		return nil, symStall("branch condition unresolved")
	}
	cond := s.applyArgs(t.op, args)
	if cv, ok := cond.Concrete(); ok {
		actual := t.tFalse
		if cv.W != 0 {
			actual = t.tTrue
		}
		return []sched.Successor{{M: s, D: d, Obs: s.settleControl(d.I, actual, cv.L)}}, nil
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
		return nil, symStall("branch condition infeasible in both worlds")
	}
	succs := make([]sched.Successor, len(plans))
	for k, p := range plans {
		arm := s
		if k < len(plans)-1 {
			arm = s.Clone().(*symMachine)
		}
		arm.pcond = p.pcond
		actual := t.tFalse
		ad := d
		ad.Arm = core.ArmNotTaken
		if p.taken {
			actual = t.tTrue
			ad.Arm = core.ArmTaken
		}
		succs[k] = sched.Successor{M: arm, D: ad, Obs: arm.settleControl(d.I, actual, cond.Label())}
	}
	return succs, nil
}

func (s *symMachine) execJmpi(d core.Directive, t *symTransient) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.args)
	if !ok {
		return nil, symStall("jump target operands unresolved")
	}
	ae := addrExpr(args)
	tv, ok := ae.Concrete()
	if !ok {
		return nil, symStall("symbolic indirect target: outside the modeled subset")
	}
	return []sched.Successor{{M: s, D: d, Obs: s.settleControl(d.I, tv.W, ae.Label())}}, nil
}

// settleControl installs the resolved jump at index i, rolling back on
// a wrong guess, and returns the jump observation with the deciding
// expression's label.
func (s *symMachine) settleControl(i int, actual isa.Addr, l mem.Label) []core.Observation {
	t, _ := s.buf.Get(i)
	if actual == t.guess {
		s.buf.SetT(i, symTransient{kind: core.TJump, target: actual})
		return []core.Observation{core.JumpObs(actual, l)}
	}
	s.buf.TruncateFrom(i)
	s.rsb.Rollback(i)
	s.buf.AppendT(symTransient{kind: core.TJump, target: actual})
	s.pc = actual
	return []core.Observation{core.RollbackObs(), core.JumpObs(actual, l)}
}

func (s *symMachine) execLoad(d core.Directive, t *symTransient) ([]sched.Successor, error) {
	args, ok := s.resolveArgs(d.I, t.args)
	if !ok {
		return nil, symStall("load address operands unresolved")
	}
	ae := addrExpr(args)
	aw, ok := s.concr.Concretize(ae, s.pcond, s.mem)
	if !ok {
		return nil, symStall("load address concretization failed")
	}
	// Most recent prior store with a resolved matching address decides
	// forwarding; its data must be resolved before any state mutates.
	fwdFrom := core.NoDep
	var fwdVal symx.Expr
	for j := d.I - 1; j >= s.buf.Min(); j-- {
		st, _ := s.buf.Get(j)
		if st.kind != core.TStore || !st.addrKnown || st.saddr != aw {
			continue
		}
		if !st.valKnown {
			return nil, symStall("matching store at %d has unresolved data", j)
		}
		fwdFrom, fwdVal = j, st.sval
		break
	}
	if _, concrete := ae.Concrete(); !concrete {
		s.pcond = s.pcond.With(symx.Constraint{E: symx.Apply(isa.OpEq, ae, symx.CW(aw)), Truthy: true})
	}
	l := ae.Label()
	if fwdFrom != core.NoDep {
		// load-execute-forward
		s.buf.SetT(d.I, symTransient{
			kind: core.TValue, dst: t.dst, val: fwdVal,
			fromLoad: true, dep: fwdFrom, dataAddr: aw, pp: t.pp,
		})
		return s.self(d, core.FwdObs(aw, l))
	}
	// load-execute-nodep
	s.buf.SetT(d.I, symTransient{
		kind: core.TValue, dst: t.dst, val: s.mem.Read(aw),
		fromLoad: true, dep: core.NoDep, dataAddr: aw, pp: t.pp,
	})
	return s.self(d, core.ReadObs(aw, l))
}

func (s *symMachine) stepExecValue(d core.Directive) ([]sched.Successor, error) {
	t, ok := s.buf.Get(d.I)
	if !ok || t.kind != core.TStore {
		return nil, symStall("execute:value needs a store at %d", d.I)
	}
	if s.buf.FenceBefore(d.I) {
		return nil, symStall("fence pending before index %d", d.I)
	}
	if t.valKnown {
		return nil, symStall("store value already resolved")
	}
	v, ok := s.resolveOperand(d.I, t.src)
	if !ok {
		return nil, symStall("store data operand unresolved")
	}
	// store-execute-value
	t, _ = s.buf.Edit(d.I)
	t.valKnown = true
	t.sval = v
	return s.self(d)
}

func (s *symMachine) stepExecAddr(d core.Directive) ([]sched.Successor, error) {
	t, ok := s.buf.Get(d.I)
	if !ok || t.kind != core.TStore {
		return nil, symStall("execute:addr needs a store at %d", d.I)
	}
	if s.buf.FenceBefore(d.I) {
		return nil, symStall("fence pending before index %d", d.I)
	}
	if t.addrKnown {
		return nil, symStall("store address already resolved")
	}
	args, ok := s.resolveArgs(d.I, t.args)
	if !ok {
		return nil, symStall("store address operands unresolved")
	}
	ae := addrExpr(args)
	aw, ok := s.concretizeStore(d.I, ae)
	if !ok {
		return nil, symStall("store address concretization failed")
	}
	if _, concrete := ae.Concrete(); !concrete {
		s.pcond = s.pcond.With(symx.Constraint{E: symx.Apply(isa.OpEq, ae, symx.CW(aw)), Truthy: true})
	}
	l := ae.Label()
	// Forwarding-correctness check over all later resolved loads
	// (store-execute-addr-*): a hazard is the earliest k > i with
	// (ak = a ∧ jk < i) ∨ (jk = i ∧ ak ≠ a).
	hazardAt, restart := 0, isa.Addr(0)
	for k := d.I + 1; k <= s.BufMax(); k++ {
		lv, _ := s.buf.Get(k)
		if lv.kind != core.TValue || !lv.fromLoad {
			continue
		}
		if (lv.dataAddr == aw && lv.dep < d.I) || (lv.dep == d.I && lv.dataAddr != aw) {
			hazardAt, restart = k, lv.pp
			break
		}
	}
	t, _ = s.buf.Edit(d.I)
	t.addrKnown = true
	t.saddr = aw
	t.saddrL = l
	if hazardAt == 0 {
		// store-execute-addr-ok
		return s.self(d, core.FwdObs(aw, l))
	}
	// store-execute-addr-hazard: restart at the stale load's program
	// point, discarding it and everything younger.
	s.buf.TruncateFrom(hazardAt)
	s.rsb.Rollback(hazardAt)
	s.pc = restart
	return s.self(d, core.RollbackObs(), core.FwdObs(aw, l))
}

func (s *symMachine) stepRetire(d core.Directive) ([]sched.Successor, error) {
	i := s.BufMin()
	t, ok := s.buf.Get(i)
	if !ok {
		return nil, symStall("empty reorder buffer")
	}
	switch t.kind {
	case core.TValue:
		s.regs.Write(t.dst, t.val)
		s.buf.PopMinN(1)
		s.retired++
		return s.self(d)
	case core.TJump, core.TFence:
		s.buf.PopMinN(1)
		s.retired++
		return s.self(d)
	case core.TStore:
		if !t.valKnown || !t.addrKnown {
			return nil, symStall("store not fully resolved")
		}
		s.mem.Write(t.saddr, t.sval)
		s.buf.PopMinN(1)
		s.retired++
		return s.self(d, core.WriteObs(t.saddr, t.saddrL))
	case core.TCall:
		rsp, ok1 := s.buf.Get(i + 1)
		st, ok2 := s.buf.Get(i + 2)
		if !ok1 || !ok2 || rsp.kind != core.TValue || st.kind != core.TStore || !st.resolved() {
			return nil, symStall("call expansion not fully resolved")
		}
		s.regs.Write(mem.RSP, rsp.val)
		s.mem.Write(st.saddr, st.sval)
		s.buf.PopMinN(3)
		s.retired++
		return s.self(d, core.WriteObs(st.saddr, st.saddrL))
	case core.TRet:
		tmp, ok1 := s.buf.Get(i + 1)
		rsp, ok2 := s.buf.Get(i + 2)
		jmp, ok3 := s.buf.Get(i + 3)
		if !ok1 || !ok2 || !ok3 || tmp.kind != core.TValue || rsp.kind != core.TValue || jmp.kind != core.TJump {
			return nil, symStall("ret expansion not fully resolved")
		}
		s.regs.Write(mem.RSP, rsp.val)
		s.buf.PopMinN(4)
		s.retired++
		return s.self(d)
	}
	return nil, symStall("index %d has no retire rule", i)
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
		ld, _ := s.buf.Get(k)
		if ld.kind != core.TLoad {
			continue
		}
		largs, ok := s.resolveArgs(k, ld.args)
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
// Fingerprinting (sched.Machine.Fingerprint) — enables the engine's
// dedup table for symbolic states. The path condition is part of the
// configuration: equal machine state under different constraints has
// different feasible futures.
// ---------------------------------------------------------------------

// Fingerprint hashes the symbolic configuration to 64 bits; equal
// configurations hash equal.
func (s *symMachine) Fingerprint() uint64 {
	h := mem.HashSeed
	mix := func(w uint64) { h = mem.Mix64(h ^ w) }
	mix(uint64(s.pc))
	mix(uint64(s.retired))
	mix(uint64(s.buf.Min()))
	// Registers and memory: order-independent sums over the cells,
	// maintained incrementally by the copy-on-write containers — O(1)
	// here instead of re-hashing every expression tree per state.
	mix(s.regs.HashSum())
	mix(s.mem.HashSum())
	for j := s.buf.Min(); j <= s.buf.Max(); j++ {
		t, _ := s.buf.Get(j)
		mix(t.hash())
	}
	mix(s.rsb.Hash())
	mix(s.pcond.Fingerprint())
	return h
}

// exprHash is the structural expression hash shared with the solver's
// cache keys.
func exprHash(e symx.Expr) uint64 { return symx.Fingerprint(e) }

// hash folds every semantically meaningful transient field, with nil
// expressions hashing to a fixed sentinel.
func (t *symTransient) hash() uint64 {
	h := mem.HashSeed
	mix := func(w uint64) { h = mem.Mix64(h ^ w) }
	he := func(e symx.Expr) {
		if e == nil {
			mix(5)
			return
		}
		mix(exprHash(e))
	}
	mix(uint64(t.kind))
	mix(uint64(t.dst))
	mix(uint64(t.op))
	mix(uint64(len(t.args)))
	for _, a := range t.args {
		if a.IsReg {
			mix(1)
		} else {
			mix(2)
		}
		mix(uint64(a.Reg))
		mix(a.Imm.W)
		mix(uint64(a.Imm.L))
	}
	he(t.val)
	if t.fromLoad {
		mix(1)
	} else {
		mix(2)
	}
	mix(uint64(t.dep))
	mix(t.dataAddr)
	mix(uint64(t.pp))
	mix(uint64(t.guess))
	mix(uint64(t.tTrue))
	mix(uint64(t.tFalse))
	mix(uint64(t.target))
	if t.src.IsReg {
		mix(1)
	} else {
		mix(2)
	}
	mix(uint64(t.src.Reg))
	mix(t.src.Imm.W)
	if t.valKnown {
		mix(1)
	} else {
		mix(2)
	}
	he(t.sval)
	if t.addrKnown {
		mix(1)
	} else {
		mix(2)
	}
	mix(t.saddr)
	mix(uint64(t.saddrL))
	return h
}

// ---------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------

// AnalyzeSymbolic runs the symbolic-mode detector on the unified
// engine: the same worst-case schedule strategy, worker pool, dedup
// table, and budgets as concrete mode, over the symbolic domain.
func AnalyzeSymbolic(m *SymMachine, opts Options) (Report, error) {
	sopts := sched.Options{
		Bound:          opts.Bound,
		ForwardHazards: opts.ForwardHazards,
		MaxStates:      opts.MaxStates,
		MaxRetired:     opts.MaxRetired,
		StopAtFirst:    opts.StopAtFirst,
		Workers:        opts.Workers,
		DedupEntries:   opts.DedupEntries,
		KeepSchedules:  true,
		Interrupt:      opts.Interrupt,
		Prune:          opts.Prune,
	}
	if opts.OnViolation != nil {
		sopts.OnViolation = func(v sched.Violation) bool {
			return opts.OnViolation(violationOf(v))
		}
	}
	e, err := sched.NewExplorer(sopts)
	if err != nil {
		return Report{}, fmt.Errorf("pitchfork: %w", err)
	}
	sm := newSymMachine(m)
	res := e.ExploreMachine(sm)
	stats := sm.solver.Stats()
	rep := Report{
		States: res.States, Paths: res.Paths,
		Truncated: res.Truncated || stats.Unknowns > 0, Interrupted: res.Interrupted,
		Mode: "symbolic", Workers: res.Workers, DedupHits: res.DedupHits,
		Solver: &stats,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, violationOf(v))
	}
	return rep, nil
}
