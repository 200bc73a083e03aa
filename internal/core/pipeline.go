package core

import (
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Domain is what the value-generic step rules need from a value domain
// V: how an immediate becomes a value, and the architectural state —
// the register file ρ the resolve function falls back to, and the ρ
// and µ the retire rules commit to.
type Domain[V any] interface {
	Imm(v mem.Value) V
	ReadReg(r isa.Reg) V
	WriteReg(r isa.Reg, v V)
	WriteMem(a mem.Word, v V)
}

// Pipeline is the speculative half of a configuration over the value
// domain V — the fetch head n, the reorder buffer buf, the return stack
// buffer σ, and the retired count — together with every step rule that
// never looks inside a value: fetch (with the call and ret expansions),
// the register resolve function of Fig. 3, the load's forwarding-store
// search, store-execute-value, store-execute-addr with its hazard scan,
// the jump settle of the branch and jmpi rules, and retire. The
// concrete Machine and the symbolic domain each embed one. What stays
// per domain is evaluating ops and addresses, deciding branches,
// reading memory, and faults.
type Pipeline[V any] struct {
	Prog    *isa.Program
	PC      isa.Addr                                 // n
	Buf     *Buffer[TransientOf[V], *TransientOf[V]] // buf
	RSB     *RSB                                     // σ
	Retired int                                      // N: retire directives applied

	dom Domain[V]
	// args backs per-step operand resolution (ResolveOperands) and obs
	// the per-step observation lists the rules return; neither is part
	// of the configuration.
	args [4]V
	obs  [2]Observation
}

// NewPipeline returns the initial pipeline of prog — empty buffer, PC
// at the entry point — with the (empty) RSB rsb, over dom's
// architectural state.
func NewPipeline[V any](prog *isa.Program, rsb *RSB, dom Domain[V]) Pipeline[V] {
	return Pipeline[V]{Prog: prog, PC: prog.Entry, Buf: NewBuffer[TransientOf[V]](), RSB: rsb, dom: dom}
}

// Fork returns a copy-on-write copy of the pipeline over dom, the
// forked configuration's architectural state.
func (p *Pipeline[V]) Fork(dom Domain[V]) Pipeline[V] {
	return Pipeline[V]{Prog: p.Prog, PC: p.PC, Buf: p.Buf.Clone(), RSB: p.RSB.Clone(), Retired: p.Retired, dom: dom}
}

// obs1 and obs2 return a step's observations in the pipeline's scratch
// buffer — valid until the next step on this pipeline (the engine and
// Run consume them immediately; RunRecorded copies).
func (p *Pipeline[V]) obs1(a Observation) []Observation {
	p.obs[0] = a
	return p.obs[:1]
}

func (p *Pipeline[V]) obs2(a, b Observation) []Observation {
	p.obs[0], p.obs[1] = a, b
	return p.obs[:2]
}

// squash discards buf(i) and everything younger, rolls σ back to
// match, and restarts fetch at pc.
func (p *Pipeline[V]) squash(i int, pc isa.Addr) {
	p.Buf.TruncateFrom(i)
	p.RSB.Rollback(i)
	p.PC = pc
}

// ---------------------------------------------------------------------
// Register resolve (Fig. 3)
// ---------------------------------------------------------------------

// ResolveReg implements the register resolve function (buf +i ρ)(r) of
// Fig. 3, extended per §3.5 to read through partially resolved loads:
//
//   - the latest assignment to r at an index j < i that is resolved
//     yields its value;
//   - a latest assignment that is unresolved yields ⊥ (ok == false);
//   - no assignment at all defers to ρ(r).
func (p *Pipeline[V]) ResolveReg(i int, r isa.Reg) (V, bool) {
	var bottom V
	hi := p.Buf.Max()
	if i-1 < hi {
		hi = i - 1
	}
	for j := hi; j >= p.Buf.Min(); j-- {
		t, _ := p.Buf.Get(j)
		if !t.AssignsReg(r) {
			continue
		}
		switch {
		case t.Kind == TValue:
			return t.Val, true
		case t.Kind == TLoad && t.PredFwd:
			return t.PredVal, true // §3.5 extension
		}
		return bottom, false // pending assignment: ⊥
	}
	return p.dom.ReadReg(r), true
}

// ResolveOperand lifts ResolveReg to a register-or-value operand:
// (buf +i ρ)(vℓ) = vℓ for immediates.
func (p *Pipeline[V]) ResolveOperand(i int, o isa.Operand) (V, bool) {
	if !o.IsReg {
		return p.dom.Imm(o.Imm), true
	}
	return p.ResolveReg(i, o.Reg)
}

// ResolveOperands is the pointwise lifting to operand lists; it fails
// if any operand is ⊥. The result is backed by a per-pipeline scratch,
// so operand resolution allocates nothing for up to four operands; it
// is only valid until the next call.
func (p *Pipeline[V]) ResolveOperands(i int, os []isa.Operand) ([]V, bool) {
	vs := p.args[:0]
	for _, o := range os {
		v, ok := p.ResolveOperand(i, o)
		if !ok {
			return nil, false
		}
		vs = append(vs, v)
	}
	return vs, true
}

// ---------------------------------------------------------------------
// Fetch stage
// ---------------------------------------------------------------------

// Fetch applies a fetch directive: simple-fetch, cond-fetch (the
// directive's guess is recorded as n0), jmpi-fetch (the attacker
// supplies the predicted target), and the call and ret expansions of
// Appendix A, with ret predicting through top(σ) under the RSB's
// empty-stack policy.
func (p *Pipeline[V]) Fetch(d Directive) error {
	in, ok := p.Prog.At(p.PC)
	if !ok {
		return Stall(d, "nothing to fetch at halt point %d", p.PC)
	}
	pp := p.PC
	switch in.Kind {
	case isa.KOp, isa.KLoad, isa.KStore, isa.KFence:
		// simple-fetch
		if d.Kind != DFetch {
			return Stall(d, "%s requires a plain fetch", in.Kind)
		}
		t := fetchForm(in, p.dom)
		t.PP = pp
		p.Buf.AppendT(t)
		p.PC = in.Next

	case isa.KBr:
		// cond-fetch
		if d.Kind != DFetchGuess {
			return Stall(d, "br requires fetch: true/false")
		}
		guess := in.False
		if d.Taken {
			guess = in.True
		}
		p.Buf.AppendT(TransientOf[V]{Kind: TBr, Op: in.Op, Args: in.Args, Guess: guess, True: in.True, False: in.False, PP: pp})
		p.PC = guess

	case isa.KJmpi:
		// jmpi-fetch
		if d.Kind != DFetchTarget {
			return Stall(d, "jmpi requires fetch: n")
		}
		p.Buf.AppendT(TransientOf[V]{Kind: TJmpi, Args: in.Args, Guess: d.Target, PP: pp})
		p.PC = d.Target

	case isa.KCall:
		// call-direct-fetch: unpack into call marker, stack-pointer
		// bump, and return-address store; push the return point onto σ.
		if d.Kind != DFetch {
			return Stall(d, "call requires a plain fetch")
		}
		ret := mem.Pub(in.RetPt)
		i := p.Buf.AppendT(TransientOf[V]{Kind: TCall, PP: pp})
		p.Buf.AppendT(TransientOf[V]{Kind: TOp, Dst: mem.RSP, Op: isa.OpSucc, Args: []isa.Operand{isa.R(mem.RSP)}, PP: pp})
		p.Buf.AppendT(TransientOf[V]{
			Kind: TStore, Src: isa.Imm(ret), ValKnown: true, SVal: p.dom.Imm(ret),
			Args: []isa.Operand{isa.R(mem.RSP)}, PP: pp,
		})
		p.RSB.Push(i, in.RetPt)
		p.PC = in.Callee

	case isa.KRet:
		// ret-fetch-rsb / ret-fetch-rsb-empty: unpack into ret marker,
		// return-address load, stack-pointer pop, and indirect jump
		// predicted to top(σ) — or to the attacker's choice when σ is
		// empty (policy-dependent).
		target, haveTop := p.RSB.Top()
		switch {
		case haveTop:
			if d.Kind != DFetch {
				return Stall(d, "ret with non-empty RSB requires a plain fetch")
			}
		case p.RSB.Policy() == RSBRefuse:
			return Stall(d, "ret with empty RSB: processor refuses to speculate")
		default: // RSBAttackerChoice with empty RSB
			if d.Kind != DFetchTarget {
				return Stall(d, "ret with empty RSB requires fetch: n")
			}
			target = d.Target
		}
		i := p.Buf.AppendT(TransientOf[V]{Kind: TRet, PP: pp})
		p.Buf.AppendT(TransientOf[V]{Kind: TLoad, Dst: mem.RTMP, Args: []isa.Operand{isa.R(mem.RSP)}, PP: pp})
		p.Buf.AppendT(TransientOf[V]{Kind: TOp, Dst: mem.RSP, Op: isa.OpPred, Args: []isa.Operand{isa.R(mem.RSP)}, PP: pp})
		p.Buf.AppendT(TransientOf[V]{Kind: TJmpi, Args: []isa.Operand{isa.R(mem.RTMP)}, Guess: target, PP: pp})
		p.RSB.Pop(i)
		p.PC = target

	default:
		return Stall(d, "unfetchable instruction kind %v", in.Kind)
	}
	return nil
}

// ---------------------------------------------------------------------
// Execute stage
// ---------------------------------------------------------------------

// Pending returns buf(i) for an execute directive on index i: i must
// be in the buffer, and no fence may precede it — the side condition
// of every execute rule.
func (p *Pipeline[V]) Pending(d Directive) (*TransientOf[V], error) {
	t, ok := p.Buf.Get(d.I)
	if !ok {
		return nil, Stall(d, "index %d not in buffer [%d,%d]", d.I, p.Buf.Min(), p.Buf.Max())
	}
	if p.Buf.FenceBefore(d.I) {
		return nil, Stall(d, "fence pending before index %d", d.I)
	}
	return t, nil
}

// Operands resolves the operand list os of the entry a directive
// executes, stalling while any operand is ⊥. The result is
// ResolveOperands' scratch.
func (p *Pipeline[V]) Operands(d Directive, os []isa.Operand) ([]V, error) {
	vs, ok := p.ResolveOperands(d.I, os)
	if !ok {
		return nil, Stall(d, "operands of index %d unresolved", d.I)
	}
	return vs, nil
}

// Settle resolves the branch or indirect jump at index i to the
// program point actual; l labels the jump observation. On a correct
// guess (cond-/jmpi-execute-correct) the resolved jump replaces the
// entry. On a wrong one (-incorrect) everything from i on is
// discarded, σ rolls back, the resolved jump is reinstalled at i, and
// fetch restarts at actual.
func (p *Pipeline[V]) Settle(i int, actual isa.Addr, l mem.Label) []Observation {
	t, _ := p.Buf.Get(i)
	if actual == t.Guess {
		p.Buf.SetT(i, TransientOf[V]{Kind: TJump, Target: actual})
		return p.obs1(JumpObs(actual, l))
	}
	p.squash(i, actual)
	p.Buf.AppendT(TransientOf[V]{Kind: TJump, Target: actual})
	return p.obs2(RollbackObs(), JumpObs(actual, l))
}

// Forwarder finds where the load a directive executes, reading address
// a, takes its value from: the most recent prior store whose address
// has resolved to a (load-execute-forward) — returned with its data —
// or NoDep when there is none (load-execute-nodep: the caller reads
// memory). Stores with unresolved addresses are skipped, which is
// exactly what makes Spectre v4 expressible. A matching store whose
// data is unresolved stalls the load.
func (p *Pipeline[V]) Forwarder(d Directive, a mem.Word) (int, V, error) {
	var none V
	for j := d.I - 1; j >= p.Buf.Min(); j-- {
		st, _ := p.Buf.Get(j)
		if !st.IsResolvedStoreTo(a) {
			continue
		}
		if !st.ValKnown {
			return NoDep, none, Stall(d, "matching store at %d has unresolved data", j)
		}
		return j, st.SVal, nil
	}
	return NoDep, none, nil
}

// ResolveLoad installs the resolved load (r = vℓ{dep, a})n at index i
// and returns its observation: fwd a for a value forwarded from the
// store at dep, read a for one read from memory (dep = NoDep).
func (p *Pipeline[V]) ResolveLoad(i int, v V, dep int, a mem.Value) []Observation {
	t, _ := p.Buf.Get(i)
	p.Buf.SetT(i, TransientOf[V]{Kind: TValue, Dst: t.Dst, Val: v, FromLoad: true, Dep: dep, DataAddr: a.W, PP: t.PP})
	if dep == NoDep {
		return p.obs1(ReadObs(a.W, a.L))
	}
	return p.obs1(FwdObs(a.W, a.L))
}

// pendingStore returns the store an execute i : value or execute i :
// addr directive resolves.
func (p *Pipeline[V]) pendingStore(d Directive) (*TransientOf[V], error) {
	t, err := p.Pending(d)
	if err != nil {
		return nil, err
	}
	if t.Kind != TStore {
		return nil, Stall(d, "%s needs a store at %d", d, d.I)
	}
	return t, nil
}

// StoreValue applies store-execute-value: execute i : value resolves
// the data operand of the store at i.
func (p *Pipeline[V]) StoreValue(d Directive) error {
	t, err := p.pendingStore(d)
	if err != nil {
		return err
	}
	if t.ValKnown {
		return Stall(d, "store value already resolved")
	}
	v, ok := p.ResolveOperand(d.I, t.Src)
	if !ok {
		return Stall(d, "store data operand unresolved")
	}
	t, _ = p.Buf.Edit(d.I)
	t.ValKnown, t.SVal = true, v
	return nil
}

// StoreAddrOperands returns the resolved address operands of the store
// an execute i : addr directive resolves; the caller evaluates them to
// an address and applies ResolveStoreAddr.
func (p *Pipeline[V]) StoreAddrOperands(d Directive) ([]V, error) {
	t, err := p.pendingStore(d)
	if err != nil {
		return nil, err
	}
	if t.AddrKnown {
		return nil, Stall(d, "store address already resolved")
	}
	return p.Operands(d, t.Args)
}

// ResolveStoreAddr resolves the address of the store at index i to a,
// after the forwarding-correctness check over all later resolved loads
// (r = vℓ{jk, ak}): a hazard is the earliest k > i with
// (ak = a ∧ jk < i) ∨ (jk = i ∧ ak ≠ a), where ⊥ < n for all n. Without
// one, store-execute-addr-ok; with one, store-execute-addr-hazard
// discards the stale load and everything younger and restarts fetch at
// the load's program point.
func (p *Pipeline[V]) ResolveStoreAddr(i int, a mem.Value) []Observation {
	hazard := false
	for k := i + 1; k <= p.Buf.Max(); k++ {
		lv, _ := p.Buf.Get(k)
		if lv.Kind != TValue || !lv.FromLoad {
			continue
		}
		if (lv.DataAddr == a.W && lv.Dep < i) || (lv.Dep == i && lv.DataAddr != a.W) {
			p.squash(k, lv.PP)
			hazard = true
			break
		}
	}
	t, _ := p.Buf.Edit(i)
	t.AddrKnown, t.SAddr = true, a
	if hazard {
		return p.obs2(RollbackObs(), FwdObs(a.W, a.L))
	}
	return p.obs1(FwdObs(a.W, a.L))
}

// ---------------------------------------------------------------------
// Retire stage
// ---------------------------------------------------------------------

// Retire applies a retire directive to buf(MIN(buf)): value-, jump-,
// fence- and store-retire, and the call and ret retires that commit
// their whole expansion at once. Commits go through the domain's
// register file and memory.
func (p *Pipeline[V]) Retire(d Directive) ([]Observation, error) {
	i := p.Buf.Min()
	t, ok := p.Buf.Get(i)
	if !ok {
		return nil, Stall(d, "empty reorder buffer")
	}
	n, obs := 1, []Observation(nil)
	switch t.Kind {
	case TValue:
		// value-retire (covers resolved ops and resolved loads)
		p.dom.WriteReg(t.Dst, t.Val)
	case TJump, TFence:
		// jump-retire, fence-retire
	case TStore:
		// store-retire
		if !t.Resolved() {
			return nil, Stall(d, "store not fully resolved: %s", t)
		}
		p.dom.WriteMem(t.SAddr.W, t.SVal)
		obs = p.obs1(WriteObs(t.SAddr.W, t.SAddr.L))
	case TCall:
		// call-retire
		rsp, ok1 := p.Buf.Get(i + 1)
		st, ok2 := p.Buf.Get(i + 2)
		if !ok1 || !ok2 || rsp.Kind != TValue || st.Kind != TStore || !st.Resolved() {
			return nil, Stall(d, "call expansion not fully resolved")
		}
		p.dom.WriteReg(mem.RSP, rsp.Val)
		p.dom.WriteMem(st.SAddr.W, st.SVal)
		n, obs = 3, p.obs1(WriteObs(st.SAddr.W, st.SAddr.L))
	case TRet:
		// ret-retire: commits the popped stack pointer; rtmp is
		// scratch and is deliberately not committed (Appendix A).
		tmp, ok1 := p.Buf.Get(i + 1)
		rsp, ok2 := p.Buf.Get(i + 2)
		jmp, ok3 := p.Buf.Get(i + 3)
		if !ok1 || !ok2 || !ok3 || tmp.Kind != TValue || rsp.Kind != TValue || jmp.Kind != TJump {
			return nil, Stall(d, "ret expansion not fully resolved")
		}
		p.dom.WriteReg(mem.RSP, rsp.Val)
		n = 4
	default:
		return nil, Stall(d, "index %d (%s) has no retire rule", i, t)
	}
	p.Buf.PopMinN(n)
	p.Retired++
	return obs, nil
}
