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

// Stall reports that directive d is not applicable in the current
// configuration: the error wraps ErrStall.
func Stall(d Directive, format string, args ...any) error {
	return &StepError{Directive: d, Reason: fmt.Sprintf(format, args...)}
}

func fault(d Directive, format string, args ...any) error {
	return &StepError{Directive: d, Reason: fmt.Sprintf(format, args...), Fault: true}
}

// Machine is a configuration C = (ρ, µ, n, buf) — extended with the
// return stack buffer σ of Appendix A — over labeled words, together
// with the static program and the address mode. The speculative half
// (n, buf, σ) and the value-independent step rules are the embedded
// Pipeline, shared with the symbolic domain; Machine adds the concrete
// rules: evaluating ops and addresses, settling branches, reading
// memory, faults, and §3.5 aliasing prediction. Step mutates the
// machine in place; Clone forks it for exploration.
type Machine struct {
	Pipeline[mem.Value]

	AddrMode isa.AddrMode
	Regs     *mem.RegisterFile // ρ
	Mem      *mem.Memory       // µ (data half)
}

// arch is the concrete Domain of a machine's pipeline: immediates are
// already values, and ρ and µ are the machine's register file and
// memory.
type arch Machine

func (a *arch) Imm(v mem.Value) mem.Value        { return v }
func (a *arch) ReadReg(r isa.Reg) mem.Value      { return a.Regs.Read(r) }
func (a *arch) WriteReg(r isa.Reg, v mem.Value)  { a.Regs.Write(r, v) }
func (a *arch) WriteMem(w mem.Word, v mem.Value) { a.Mem.Write(w, v) }

// Option configures a Machine at construction.
type Option func(*Machine)

// WithAddrMode selects the Jaddr(·)K instantiation.
func WithAddrMode(mode isa.AddrMode) Option {
	return func(m *Machine) { m.AddrMode = mode }
}

// WithRSBPolicy selects the empty-RSB behaviour.
func WithRSBPolicy(p RSBPolicy) Option {
	return func(m *Machine) { m.RSB = NewRSB(p) }
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
	m := &Machine{Regs: mem.NewRegisterFile(), Mem: prog.InitialMemory()}
	m.Pipeline = NewPipeline[mem.Value](prog, NewRSB(RSBAttackerChoice), (*arch)(m))
	for _, o := range opts {
		o(m)
	}
	return m
}

// Clone forks the machine; the program is shared (it is immutable
// during execution).
func (m *Machine) Clone() *Machine {
	c := &Machine{AddrMode: m.AddrMode, Regs: m.Regs.Clone(), Mem: m.Mem.Clone()}
	c.Pipeline = m.Fork((*arch)(c))
	return c
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
		return nil, m.Fetch(d)
	case DExecute:
		return m.stepExecute(d)
	case DExecValue:
		return nil, m.StoreValue(d)
	case DExecAddr:
		vals, err := m.StoreAddrOperands(d)
		if err != nil {
			return nil, err
		}
		addr, err := isa.EvalAddr(m.AddrMode, vals)
		if err != nil {
			return nil, fault(d, "addr: %v", err)
		}
		return m.ResolveStoreAddr(d.I, addr), nil
	case DExecFwd:
		return m.stepExecuteFwd(d)
	case DRetire:
		return m.Retire(d)
	}
	return nil, Stall(d, "unknown directive kind")
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
// Execute stage: the concrete evaluation of ops, branches, jump
// targets and load addresses, and §3.5 aliasing prediction.
// ---------------------------------------------------------------------

// eval evaluates the operator of the op or branch entry t.
func (m *Machine) eval(d Directive, t *Transient) (mem.Value, error) {
	vals, err := m.Operands(d, t.Args)
	if err != nil {
		return mem.Value{}, err
	}
	v, err := isa.Eval(t.Op, vals)
	if err != nil {
		return mem.Value{}, fault(d, "eval: %v", err)
	}
	return v, nil
}

// address evaluates the address operands of the jmpi or load entry t.
func (m *Machine) address(d Directive, t *Transient) (mem.Value, error) {
	vals, err := m.Operands(d, t.Args)
	if err != nil {
		return mem.Value{}, err
	}
	a, err := isa.EvalAddr(m.AddrMode, vals)
	if err != nil {
		return mem.Value{}, fault(d, "addr: %v", err)
	}
	return a, nil
}

func (m *Machine) stepExecute(d Directive) ([]Observation, error) {
	t, err := m.Pending(d)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case TOp:
		v, err := m.eval(d, t)
		if err != nil {
			return nil, err
		}
		m.Buf.SetT(d.I, Transient{Kind: TValue, Dst: t.Dst, Val: v})
		return nil, nil
	case TBr:
		cond, err := m.eval(d, t)
		if err != nil {
			return nil, err
		}
		actual := t.False
		if cond.W != 0 {
			actual = t.True
		}
		return m.Settle(d.I, actual, cond.L), nil
	case TJmpi:
		target, err := m.address(d, t)
		if err != nil {
			return nil, err
		}
		return m.Settle(d.I, target.W, target.L), nil
	case TLoad:
		if t.PredFwd {
			return m.execPredictedLoad(d, t)
		}
		return m.execLoad(d, t)
	}
	return nil, Stall(d, "index %d (%s) has no execute rule", d.I, t)
}

func (m *Machine) execLoad(d Directive, t *Transient) ([]Observation, error) {
	addr, err := m.address(d, t)
	if err != nil {
		return nil, err
	}
	j, v, err := m.Forwarder(d, addr.W)
	if err != nil {
		return nil, err
	}
	if j == NoDep {
		// load-execute-nodep
		if v, err = m.Mem.Read(addr.W); err != nil {
			return nil, fault(d, "%v", err)
		}
	}
	return m.ResolveLoad(d.I, v, j, addr), nil
}

// execPredictedLoad resolves a partially resolved load
// (r = load(r⃗v, (vℓ, j)))n — the §3.5 aliasing-prediction extension.
func (m *Machine) execPredictedLoad(d Directive, t *Transient) ([]Observation, error) {
	addr, err := m.address(d, t)
	if err != nil {
		return nil, err
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
			return m.ResolveLoad(d.I, st.SVal, j, addr), nil
		}
		// load-execute-addr-hazard: discard the load and everything
		// after it; restart at the load's own program point.
		m.squash(d.I, t.PP)
		return m.obs2(RollbackObs(), FwdObs(addr.W, addr.L)), nil
	}
	// Originating store already retired: validate against memory,
	// provided no other buffered store resolves to this address.
	for k := m.Buf.Min(); k < d.I; k++ {
		if s2, ok := m.Buf.Get(k); ok && s2.IsResolvedStoreTo(addr.W) {
			return nil, Stall(d, "prior store at %d to %#x must resolve first", k, addr.W)
		}
	}
	v, err := m.Mem.Read(addr.W)
	if err != nil {
		return nil, fault(d, "%v", err)
	}
	if v.Equal(t.PredVal) {
		// load-execute-addr-mem-match
		return m.ResolveLoad(d.I, v, NoDep, addr), nil
	}
	// load-execute-addr-mem-hazard
	m.squash(d.I, t.PP)
	return m.obs2(RollbackObs(), ReadObs(addr.W, addr.L)), nil
}

func (m *Machine) stepExecuteFwd(d Directive) ([]Observation, error) {
	t, err := m.Pending(d)
	if err != nil {
		return nil, err
	}
	if t.Kind != TLoad || t.PredFwd {
		return nil, Stall(d, "execute:fwd needs an unresolved, unpredicted load at %d", d.I)
	}
	if d.From >= d.I {
		return nil, Stall(d, "forwarding store %d must be older than load %d", d.From, d.I)
	}
	st, ok := m.Buf.Get(d.From)
	if !ok || st.Kind != TStore || !st.ValKnown {
		return nil, Stall(d, "index %d is not a value-resolved store", d.From)
	}
	// load-execute-forwarded-guessed
	t, _ = m.Buf.Edit(d.I)
	t.PredFwd = true
	t.PredVal = st.SVal
	t.PredFrom = d.From
	return nil, nil
}
