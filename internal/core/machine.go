package core

import (
	"errors"
	"fmt"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// ErrStall is wrapped by step errors that mean "this directive is not
// applicable in this configuration" — the schedule is not well-formed
// at this point. Distinguishing stalls from machine faults lets
// schedule generators probe directives safely.
var ErrStall = errors.New("directive not applicable")

// StepError reports why a directive could not step.
type StepError struct {
	Directive Directive
	Reason    string
	Fault     bool // true for machine faults (e.g. wild strict-memory read)
}

// Error implements error.
func (e *StepError) Error() string {
	kind := "stall"
	if e.Fault {
		kind = "fault"
	}
	return fmt.Sprintf("core: %s on %q: %s", kind, e.Directive, e.Reason)
}

// Unwrap lets errors.Is(err, ErrStall) identify non-fault step errors.
func (e *StepError) Unwrap() error {
	if e.Fault {
		return nil
	}
	return ErrStall
}

func stall(d Directive, format string, args ...any) error {
	return &StepError{Directive: d, Reason: fmt.Sprintf(format, args...)}
}

func fault(d Directive, format string, args ...any) error {
	return &StepError{Directive: d, Reason: fmt.Sprintf(format, args...), Fault: true}
}

// Machine is a configuration C = (ρ, µ, n, buf) — extended with the
// return stack buffer σ of Appendix A — together with the static
// program and the machine parameters (address mode, RSB policy).
// Step mutates the machine in place; Clone forks it for exploration.
type Machine struct {
	Prog      *isa.Program
	AddrMode  isa.AddrMode
	RSBPolicy RSBPolicy

	Regs *mem.RegisterFile              // ρ
	Mem  *mem.Memory                    // µ (data half)
	PC   isa.Addr                       // n
	Buf  *Buffer[Transient, *Transient] // buf
	RSB  *RSB                           // σ

	Retired int // N: retired-instruction count (retire directives)

	// opScratch backs per-step operand resolution (see
	// ResolveOperandsInto) and obsScratch the per-step
	// observation lists Step returns; neither is part of the
	// configuration.
	opScratch  [4]mem.Value
	obsScratch [2]Observation
}

// obs1 and obs2 return the step's observations in the machine's
// scratch buffer — valid until the next Step call (Run and the
// exploration engine consume them immediately; RunRecorded copies).
func (m *Machine) obs1(a Observation) []Observation {
	m.obsScratch[0] = a
	return m.obsScratch[:1]
}

func (m *Machine) obs2(a, b Observation) []Observation {
	m.obsScratch[0], m.obsScratch[1] = a, b
	return m.obsScratch[:2]
}

// Option configures a Machine at construction.
type Option func(*Machine)

// WithAddrMode selects the Jaddr(·)K instantiation.
func WithAddrMode(mode isa.AddrMode) Option {
	return func(m *Machine) { m.AddrMode = mode }
}

// WithRSBPolicy selects the empty-RSB behaviour.
func WithRSBPolicy(p RSBPolicy) Option {
	return func(m *Machine) {
		m.RSBPolicy = p
		m.RSB = NewRSB(p)
	}
}

// WithStrictMemory makes reads of unmapped data addresses machine
// faults instead of zeroes.
func WithStrictMemory() Option {
	return func(m *Machine) {
		strict := mem.NewStrictMemory()
		for _, a := range m.Mem.Addresses() {
			v, _ := m.Mem.Read(a)
			strict.Write(a, v)
		}
		m.Mem = strict
	}
}

// New builds a machine in the initial configuration of prog: empty
// buffer, empty RSB, PC at the entry point, memory seeded from the
// program's data image.
func New(prog *isa.Program, opts ...Option) *Machine {
	m := &Machine{
		Prog: prog,
		Regs: mem.NewRegisterFile(),
		Mem:  prog.InitialMemory(),
		PC:   prog.Entry,
		Buf:  NewBuffer[Transient](),
		RSB:  NewRSB(RSBAttackerChoice),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Clone forks the machine; the program is shared (it is immutable
// during execution).
func (m *Machine) Clone() *Machine {
	return &Machine{
		Prog:      m.Prog,
		AddrMode:  m.AddrMode,
		RSBPolicy: m.RSBPolicy,
		Regs:      m.Regs.Clone(),
		Mem:       m.Mem.Clone(),
		PC:        m.PC,
		Buf:       m.Buf.Clone(),
		RSB:       m.RSB.Clone(),
		Retired:   m.Retired,
	}
}

// Halted reports whether execution is complete: nothing in flight and
// nothing to fetch (the PC is a halt point).
func (m *Machine) Halted() bool {
	if !m.Buf.Empty() {
		return false
	}
	_, ok := m.Prog.At(m.PC)
	return !ok
}

// Terminal reports |buf| = 0, the paper's initial/terminal condition
// (Def. B.2).
func (m *Machine) Terminal() bool { return m.Buf.Empty() }

// LowEquiv reports C ≃pub C′: agreement on public register and memory
// values. It is meaningful for initial/terminal configurations, where
// the speculative state is empty.
func (m *Machine) LowEquiv(o *Machine) bool {
	return m.PC == o.PC && m.Regs.LowEquiv(o.Regs) && m.Mem.LowEquiv(o.Mem)
}

// ApproxEqual reports C ≈ C′: equal memories and register files, with
// speculative state (buffer, RSB, PC) disregarded — the equivalence of
// Theorem 3.2.
func (m *Machine) ApproxEqual(o *Machine) bool {
	return m.Regs.Equal(o.Regs) && m.Mem.Equal(o.Mem)
}

// Equal reports full configuration equality (used for terminal
// configurations, where it strengthens ≈ per Corollary B.8).
func (m *Machine) Equal(o *Machine) bool {
	if !m.ApproxEqual(o) || m.PC != o.PC {
		return false
	}
	if m.Buf.Len() != o.Buf.Len() {
		return false
	}
	for i := m.Buf.Min(); i <= m.Buf.Max(); i++ {
		a, _ := m.Buf.Get(i)
		b, ok := o.Buf.Get(i)
		if !ok || a.String() != b.String() {
			return false
		}
	}
	return true
}

// ResolveReg implements the register resolve function (buf +i ρ)(r) of
// Fig. 3, extended per §3.5 to read through partially resolved loads:
//
//   - the latest assignment to r at an index j < i that is resolved
//     yields its value;
//   - a latest assignment that is unresolved yields ⊥ (ok == false);
//   - no assignment at all defers to ρ(r).
func (m *Machine) ResolveReg(i int, r isa.Reg) (mem.Value, bool) {
	b := m.Buf
	hi := b.Max()
	if i-1 < hi {
		hi = i - 1
	}
	for j := hi; j >= b.Min() && j >= 1; j-- {
		t, ok := b.Get(j)
		if !ok || !t.AssignsReg(r) {
			continue
		}
		switch t.Kind {
		case TValue:
			return t.Val, true
		case TLoad:
			if t.PredFwd {
				return t.PredVal, true // §3.5 extension
			}
			return mem.Value{}, false // pending assignment: ⊥
		case TOp:
			return mem.Value{}, false // pending assignment: ⊥
		}
	}
	return m.Regs.Read(r), true
}

// ResolveOperand lifts ResolveReg to a register-or-value operand:
// (buf +i ρ)(vℓ) = vℓ for immediates.
func (m *Machine) ResolveOperand(i int, o isa.Operand) (mem.Value, bool) {
	if !o.IsReg {
		return o.Imm, true
	}
	return m.ResolveReg(i, o.Reg)
}

// ResolveOperands is the pointwise lifting to operand lists; it fails
// if any operand is ⊥.
func (m *Machine) ResolveOperands(i int, os []isa.Operand) ([]mem.Value, bool) {
	return m.ResolveOperandsInto(nil, i, os)
}

// ResolveOperandsInto is ResolveOperands with a caller-supplied
// destination, reused when its capacity suffices; the step rules pass
// a per-machine scratch so per-step operand resolution allocates
// nothing. The result aliases dst and is only valid until its next
// reuse.
func (m *Machine) ResolveOperandsInto(dst []mem.Value, i int, os []isa.Operand) ([]mem.Value, bool) {
	if cap(dst) < len(os) {
		dst = make([]mem.Value, len(os))
	}
	dst = dst[:len(os)]
	for k, o := range os {
		v, ok := m.ResolveOperand(i, o)
		if !ok {
			return nil, false
		}
		dst[k] = v
	}
	return dst, true
}

// Step executes one small step C ↪→ᵈ C′, returning the observations o
// the step produces. A nil error means the directive applied; a
// returned error wrapping ErrStall means the schedule is not
// well-formed here and the machine is unchanged. The returned slice is
// backed by a per-machine scratch buffer and is only valid until the
// next Step call on this machine; consume or copy it first (Run
// appends the values, RunRecorded copies).
func (m *Machine) Step(d Directive) ([]Observation, error) {
	switch d.Kind {
	case DFetch, DFetchGuess, DFetchTarget:
		return m.stepFetch(d)
	case DExecute:
		return m.stepExecute(d)
	case DExecValue:
		return m.stepExecuteValue(d)
	case DExecAddr:
		return m.stepExecuteAddr(d)
	case DExecFwd:
		return m.stepExecuteFwd(d)
	case DRetire:
		return m.stepRetire(d)
	}
	return nil, stall(d, "unknown directive kind")
}

// Run steps through the schedule, concatenating observations. On a
// step error it stops and returns the trace so far alongside the
// error.
func (m *Machine) Run(ds Schedule) (Trace, error) {
	var trace Trace
	for _, d := range ds {
		obs, err := m.Step(d)
		trace = append(trace, obs...)
		if err != nil {
			return trace, err
		}
	}
	return trace, nil
}

// StepRecord pairs a directive with its observations, for
// figure-style rendering of executions.
type StepRecord struct {
	Directive Directive
	Obs       []Observation
}

// RunRecorded is Run with per-step observation records. The records
// copy each step's observations out of the machine's scratch buffer.
func (m *Machine) RunRecorded(ds Schedule) ([]StepRecord, error) {
	recs := make([]StepRecord, 0, len(ds))
	for _, d := range ds {
		obs, err := m.Step(d)
		recs = append(recs, StepRecord{Directive: d, Obs: append([]Observation(nil), obs...)})
		if err != nil {
			return recs, err
		}
	}
	return recs, nil
}

// ---------------------------------------------------------------------
// Fetch stage
// ---------------------------------------------------------------------

func (m *Machine) stepFetch(d Directive) ([]Observation, error) {
	in, ok := m.Prog.At(m.PC)
	if !ok {
		return nil, stall(d, "nothing to fetch at halt point %d", m.PC)
	}
	switch in.Kind {
	case isa.KOp, isa.KLoad, isa.KStore, isa.KFence:
		// simple-fetch
		if d.Kind != DFetch {
			return nil, stall(d, "%s requires a plain fetch", in.Kind)
		}
		t := transientValue(in)
		t.PP = m.PC
		m.Buf.AppendT(t)
		m.PC = in.Next
		return nil, nil

	case isa.KBr:
		// cond-fetch: the directive's guess selects the speculative arm
		// and is recorded as n0 in the transient branch.
		if d.Kind != DFetchGuess {
			return nil, stall(d, "br requires fetch: true/false")
		}
		guess := in.False
		if d.Taken {
			guess = in.True
		}
		m.Buf.AppendT(Transient{
			Kind: TBr, Op: in.Op, Args: in.Args,
			Guess: guess, True: in.True, False: in.False,
			PP: m.PC,
		})
		m.PC = guess
		return nil, nil

	case isa.KJmpi:
		// jmpi-fetch: the attacker supplies the predicted target n′.
		if d.Kind != DFetchTarget {
			return nil, stall(d, "jmpi requires fetch: n")
		}
		m.Buf.AppendT(Transient{Kind: TJmpi, Args: in.Args, Guess: d.Target, PP: m.PC})
		m.PC = d.Target
		return nil, nil

	case isa.KCall:
		// call-direct-fetch: unpack into call marker, stack-pointer
		// bump, and return-address store; push the return point onto σ.
		if d.Kind != DFetch {
			return nil, stall(d, "call requires a plain fetch")
		}
		i := m.Buf.AppendT(Transient{Kind: TCall, PP: m.PC})
		m.Buf.AppendT(Transient{Kind: TOp, Dst: mem.RSP, Op: isa.OpSucc, Args: []isa.Operand{isa.R(mem.RSP)}, PP: m.PC})
		m.Buf.AppendT(Transient{
			Kind: TStore, Src: isa.Imm(mem.Pub(in.RetPt)),
			ValKnown: true, SVal: mem.Pub(in.RetPt),
			Args: []isa.Operand{isa.R(mem.RSP)},
			PP:   m.PC,
		})
		m.RSB.Push(i, in.RetPt)
		m.PC = in.Callee
		return nil, nil

	case isa.KRet:
		// ret-fetch-rsb / ret-fetch-rsb-empty: unpack into ret marker,
		// return-address load, stack-pointer pop, and indirect jump
		// predicted to top(σ) — or to the attacker's choice when σ is
		// empty (policy-dependent).
		target, haveTop := m.RSB.Top()
		switch {
		case haveTop:
			if d.Kind != DFetch {
				return nil, stall(d, "ret with non-empty RSB requires a plain fetch")
			}
		case m.RSBPolicy == RSBRefuse:
			return nil, stall(d, "ret with empty RSB: processor refuses to speculate")
		default: // RSBAttackerChoice with empty RSB
			if d.Kind != DFetchTarget {
				return nil, stall(d, "ret with empty RSB requires fetch: n")
			}
			target = d.Target
		}
		retPt := m.PC
		i := m.Buf.AppendT(Transient{Kind: TRet, PP: retPt})
		m.Buf.AppendT(Transient{Kind: TLoad, Dst: mem.RTMP, Args: []isa.Operand{isa.R(mem.RSP)}, PP: retPt})
		m.Buf.AppendT(Transient{Kind: TOp, Dst: mem.RSP, Op: isa.OpPred, Args: []isa.Operand{isa.R(mem.RSP)}, PP: retPt})
		m.Buf.AppendT(Transient{Kind: TJmpi, Args: []isa.Operand{isa.R(mem.RTMP)}, Guess: target, PP: retPt})
		m.RSB.Pop(i)
		m.PC = target
		return nil, nil
	}
	return nil, stall(d, "unfetchable instruction kind %v", in.Kind)
}

// ---------------------------------------------------------------------
// Execute stage
// ---------------------------------------------------------------------

func (m *Machine) stepExecute(d Directive) ([]Observation, error) {
	t, ok := m.Buf.Get(d.I)
	if !ok {
		return nil, stall(d, "index %d not in buffer [%d,%d]", d.I, m.Buf.Min(), m.Buf.Max())
	}
	if m.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	switch t.Kind {
	case TOp:
		return m.execOp(d, t)
	case TBr:
		return m.execBranch(d, t)
	case TJmpi:
		return m.execJmpi(d, t)
	case TLoad:
		if t.PredFwd {
			return m.execPredictedLoad(d, t)
		}
		return m.execLoad(d, t)
	}
	return nil, stall(d, "index %d (%s) has no execute rule", d.I, t)
}

func (m *Machine) execOp(d Directive, t *Transient) ([]Observation, error) {
	vals, ok := m.ResolveOperandsInto(m.opScratch[:0], d.I, t.Args)
	if !ok {
		return nil, stall(d, "operands of %s unresolved", t)
	}
	v, err := isa.Eval(t.Op, vals)
	if err != nil {
		return nil, fault(d, "eval: %v", err)
	}
	m.Buf.SetT(d.I, Transient{Kind: TValue, Dst: t.Dst, Val: v})
	return nil, nil
}

func (m *Machine) execBranch(d Directive, t *Transient) ([]Observation, error) {
	vals, ok := m.ResolveOperandsInto(m.opScratch[:0], d.I, t.Args)
	if !ok {
		return nil, stall(d, "branch condition unresolved")
	}
	cond, err := isa.Eval(t.Op, vals)
	if err != nil {
		return nil, fault(d, "eval: %v", err)
	}
	actual := t.False
	if cond.W != 0 {
		actual = t.True
	}
	if actual == t.Guess {
		// cond-execute-correct
		m.Buf.SetT(d.I, Transient{Kind: TJump, Target: actual})
		return m.obs1(JumpObs(actual, cond.L)), nil
	}
	// cond-execute-incorrect: discard everything from i on, reinstall
	// the resolved jump at i, redirect the PC, roll back σ.
	m.Buf.TruncateFrom(d.I)
	m.RSB.Rollback(d.I)
	m.Buf.AppendT(Transient{Kind: TJump, Target: actual})
	m.PC = actual
	return m.obs2(RollbackObs(), JumpObs(actual, cond.L)), nil
}

func (m *Machine) execJmpi(d Directive, t *Transient) ([]Observation, error) {
	vals, ok := m.ResolveOperandsInto(m.opScratch[:0], d.I, t.Args)
	if !ok {
		return nil, stall(d, "jump target operands unresolved")
	}
	target, err := isa.EvalAddr(m.AddrMode, vals)
	if err != nil {
		return nil, fault(d, "addr: %v", err)
	}
	if target.W == t.Guess {
		// jmpi-execute-correct
		m.Buf.SetT(d.I, Transient{Kind: TJump, Target: target.W})
		return m.obs1(JumpObs(target.W, target.L)), nil
	}
	// jmpi-execute-incorrect
	m.Buf.TruncateFrom(d.I)
	m.RSB.Rollback(d.I)
	m.Buf.AppendT(Transient{Kind: TJump, Target: target.W})
	m.PC = target.W
	return m.obs2(RollbackObs(), JumpObs(target.W, target.L)), nil
}

func (m *Machine) execLoad(d Directive, t *Transient) ([]Observation, error) {
	vals, ok := m.ResolveOperandsInto(m.opScratch[:0], d.I, t.Args)
	if !ok {
		return nil, stall(d, "load address operands unresolved")
	}
	addr, err := isa.EvalAddr(m.AddrMode, vals)
	if err != nil {
		return nil, fault(d, "addr: %v", err)
	}
	// Most recent prior store with a resolved matching address, if any.
	// Stores with unresolved addresses are skipped — which is exactly
	// what makes Spectre v4 expressible.
	for j := d.I - 1; j >= m.Buf.Min() && j >= 1; j-- {
		st, ok := m.Buf.Get(j)
		if !ok || !st.IsResolvedStoreTo(addr.W) {
			continue
		}
		if !st.ValKnown {
			// load-execute-forward needs the store's data; no rule
			// applies until the value resolves.
			return nil, stall(d, "matching store at %d has unresolved data", j)
		}
		// load-execute-forward
		m.Buf.SetT(d.I, Transient{
			Kind: TValue, Dst: t.Dst, Val: st.SVal,
			FromLoad: true, Dep: j, DataAddr: addr.W, PP: t.PP,
		})
		return m.obs1(FwdObs(addr.W, addr.L)), nil
	}
	// load-execute-nodep
	v, err := m.Mem.Read(addr.W)
	if err != nil {
		return nil, fault(d, "%v", err)
	}
	m.Buf.SetT(d.I, Transient{
		Kind: TValue, Dst: t.Dst, Val: v,
		FromLoad: true, Dep: NoDep, DataAddr: addr.W, PP: t.PP,
	})
	return m.obs1(ReadObs(addr.W, addr.L)), nil
}

// execPredictedLoad resolves a partially resolved load
// (r = load(r⃗v, (vℓ, j)))n — the §3.5 aliasing-prediction extension.
func (m *Machine) execPredictedLoad(d Directive, t *Transient) ([]Observation, error) {
	vals, ok := m.ResolveOperandsInto(m.opScratch[:0], d.I, t.Args)
	if !ok {
		return nil, stall(d, "load address operands unresolved")
	}
	addr, err := isa.EvalAddr(m.AddrMode, vals)
	if err != nil {
		return nil, fault(d, "addr: %v", err)
	}
	j := t.PredFrom
	if st, inBuf := m.Buf.Get(j); inBuf {
		// Originating store still in the reorder buffer.
		mismatch := st.AddrKnown && st.SAddr.W != addr.W
		intervening := false
		for k := j + 1; k < d.I; k++ {
			if s2, ok := m.Buf.Get(k); ok && s2.IsResolvedStoreTo(addr.W) {
				intervening = true
				break
			}
		}
		if !mismatch && !intervening {
			// load-execute-addr-ok
			m.Buf.SetT(d.I, Transient{
				Kind: TValue, Dst: t.Dst, Val: st.SVal,
				FromLoad: true, Dep: j, DataAddr: addr.W, PP: t.PP,
			})
			return m.obs1(FwdObs(addr.W, addr.L)), nil
		}
		// load-execute-addr-hazard: discard the load and everything
		// after it; restart at the load's own program point.
		m.Buf.TruncateFrom(d.I)
		m.RSB.Rollback(d.I)
		m.PC = t.PP
		return m.obs2(RollbackObs(), FwdObs(addr.W, addr.L)), nil
	}
	// Originating store already retired: validate against memory,
	// provided no other buffered store resolves to this address.
	for k := m.Buf.Min(); k < d.I; k++ {
		if s2, ok := m.Buf.Get(k); ok && s2.IsResolvedStoreTo(addr.W) {
			return nil, stall(d, "prior store at %d to %#x must resolve first", k, addr.W)
		}
	}
	v, err := m.Mem.Read(addr.W)
	if err != nil {
		return nil, fault(d, "%v", err)
	}
	if v.Equal(t.PredVal) {
		// load-execute-addr-mem-match
		m.Buf.SetT(d.I, Transient{
			Kind: TValue, Dst: t.Dst, Val: v,
			FromLoad: true, Dep: NoDep, DataAddr: addr.W, PP: t.PP,
		})
		return m.obs1(ReadObs(addr.W, addr.L)), nil
	}
	// load-execute-addr-mem-hazard
	m.Buf.TruncateFrom(d.I)
	m.RSB.Rollback(d.I)
	m.PC = t.PP
	return m.obs2(RollbackObs(), ReadObs(addr.W, addr.L)), nil
}

func (m *Machine) stepExecuteValue(d Directive) ([]Observation, error) {
	t, ok := m.Buf.Get(d.I)
	if !ok || t.Kind != TStore {
		return nil, stall(d, "execute:value needs a store at %d", d.I)
	}
	if m.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	if t.ValKnown {
		return nil, stall(d, "store value already resolved")
	}
	v, ok := m.ResolveOperand(d.I, t.Src)
	if !ok {
		return nil, stall(d, "store data operand unresolved")
	}
	// store-execute-value
	t, _ = m.Buf.Edit(d.I)
	t.ValKnown = true
	t.SVal = v
	return nil, nil
}

func (m *Machine) stepExecuteAddr(d Directive) ([]Observation, error) {
	t, ok := m.Buf.Get(d.I)
	if !ok || t.Kind != TStore {
		return nil, stall(d, "execute:addr needs a store at %d", d.I)
	}
	if m.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	if t.AddrKnown {
		return nil, stall(d, "store address already resolved")
	}
	vals, ok := m.ResolveOperandsInto(m.opScratch[:0], d.I, t.Args)
	if !ok {
		return nil, stall(d, "store address operands unresolved")
	}
	addr, err := isa.EvalAddr(m.AddrMode, vals)
	if err != nil {
		return nil, fault(d, "addr: %v", err)
	}
	// Forwarding-correctness check over all later resolved loads
	// (r = vℓ{jk, ak}): a hazard is the earliest k > i with
	// (ak = a ∧ jk < i) ∨ (jk = i ∧ ak ≠ a), where ⊥ < n for all n.
	hazardAt := 0
	var hazardLoad *Transient
	for k := d.I + 1; k <= m.Buf.Max(); k++ {
		lv, ok := m.Buf.Get(k)
		if !ok || lv.Kind != TValue || !lv.FromLoad {
			continue
		}
		staleRead := lv.DataAddr == addr.W && lv.Dep < d.I
		wrongFwd := lv.Dep == d.I && lv.DataAddr != addr.W
		if staleRead || wrongFwd {
			hazardAt = k
			hazardLoad = lv
			break
		}
	}
	if hazardLoad == nil {
		// store-execute-addr-ok
		t, _ = m.Buf.Edit(d.I)
		t.AddrKnown = true
		t.SAddr = addr
		return m.obs1(FwdObs(addr.W, addr.L)), nil
	}
	// store-execute-addr-hazard: restart at the stale load's program
	// point, discarding it and everything younger.
	restart := hazardLoad.PP
	m.Buf.TruncateFrom(hazardAt)
	m.RSB.Rollback(hazardAt)
	t, _ = m.Buf.Edit(d.I)
	t.AddrKnown = true
	t.SAddr = addr
	m.PC = restart
	return m.obs2(RollbackObs(), FwdObs(addr.W, addr.L)), nil
}

func (m *Machine) stepExecuteFwd(d Directive) ([]Observation, error) {
	t, ok := m.Buf.Get(d.I)
	if !ok || t.Kind != TLoad {
		return nil, stall(d, "execute:fwd needs an unresolved load at %d", d.I)
	}
	if t.PredFwd {
		return nil, stall(d, "load already carries a predicted forward")
	}
	if m.Buf.FenceBefore(d.I) {
		return nil, stall(d, "fence pending before index %d", d.I)
	}
	if d.From >= d.I {
		return nil, stall(d, "forwarding store %d must be older than load %d", d.From, d.I)
	}
	st, ok := m.Buf.Get(d.From)
	if !ok || st.Kind != TStore || !st.ValKnown {
		return nil, stall(d, "index %d is not a value-resolved store", d.From)
	}
	// load-execute-forwarded-guessed
	t, _ = m.Buf.Edit(d.I)
	t.PredFwd = true
	t.PredVal = st.SVal
	t.PredFrom = d.From
	return nil, nil
}

// ---------------------------------------------------------------------
// Retire stage
// ---------------------------------------------------------------------

func (m *Machine) stepRetire(d Directive) ([]Observation, error) {
	i := m.Buf.Min()
	t, ok := m.Buf.Get(i)
	if !ok {
		return nil, stall(d, "empty reorder buffer")
	}
	switch t.Kind {
	case TValue:
		// value-retire (covers resolved ops and resolved loads)
		m.Regs.Write(t.Dst, t.Val)
		m.Buf.PopMin()
		m.Retired++
		return nil, nil

	case TJump:
		// jump-retire
		m.Buf.PopMin()
		m.Retired++
		return nil, nil

	case TStore:
		// store-retire
		if !t.ValKnown || !t.AddrKnown {
			return nil, stall(d, "store not fully resolved: %s", t)
		}
		m.Mem.Write(t.SAddr.W, t.SVal)
		m.Buf.PopMin()
		m.Retired++
		return m.obs1(WriteObs(t.SAddr.W, t.SAddr.L)), nil

	case TFence:
		// fence-retire
		m.Buf.PopMin()
		m.Retired++
		return nil, nil

	case TCall:
		// call-retire: the whole expansion retires at once.
		rsp, ok1 := m.Buf.Get(i + 1)
		st, ok2 := m.Buf.Get(i + 2)
		if !ok1 || !ok2 || rsp.Kind != TValue || st.Kind != TStore || !st.ValKnown || !st.AddrKnown {
			return nil, stall(d, "call expansion not fully resolved")
		}
		m.Regs.Write(mem.RSP, rsp.Val)
		m.Mem.Write(st.SAddr.W, st.SVal)
		m.Buf.PopMinN(3)
		m.Retired++
		return m.obs1(WriteObs(st.SAddr.W, st.SAddr.L)), nil

	case TRet:
		// ret-retire: commits the popped stack pointer; rtmp is
		// scratch and is deliberately not committed (Appendix A).
		tmp, ok1 := m.Buf.Get(i + 1)
		rsp, ok2 := m.Buf.Get(i + 2)
		jmp, ok3 := m.Buf.Get(i + 3)
		if !ok1 || !ok2 || !ok3 ||
			tmp.Kind != TValue || rsp.Kind != TValue || jmp.Kind != TJump {
			return nil, stall(d, "ret expansion not fully resolved")
		}
		m.Regs.Write(mem.RSP, rsp.Val)
		m.Buf.PopMinN(4)
		m.Retired++
		return nil, nil
	}
	return nil, stall(d, "index %d (%s) has no retire rule", i, t)
}
