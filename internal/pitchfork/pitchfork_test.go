package pitchfork

import (
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/sched"
	"pitchfork/internal/symx"
)

const (
	ra = isa.Reg(0)
	rb = isa.Reg(1)
	rc = isa.Reg(2)
	rd = isa.Reg(3)
)

func v1Machine() *core.Machine {
	b := isa.NewBuilder(1)
	b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(ra)}, 2, 4)
	b.Load(rb, isa.ImmW(0x40), isa.R(ra))
	b.Load(rc, isa.ImmW(0x44), isa.R(rb))
	b.Region(0x40, mem.Pub(1), mem.Pub(2), mem.Pub(3), mem.Pub(4))
	b.Region(0x44, mem.Pub(5), mem.Pub(6), mem.Pub(7), mem.Pub(8))
	b.Region(0x48, mem.Sec(0xA0), mem.Sec(0xA1), mem.Sec(0xA2), mem.Sec(0xA3))
	m := core.New(b.MustBuild())
	m.Regs.Write(ra, mem.Pub(9))
	return m
}

func v4Machine() *core.Machine {
	b := isa.NewBuilder(1)
	b.Store(isa.ImmW(0), isa.ImmW(3), isa.R(ra))
	b.Load(rc, isa.ImmW(0x43))
	b.Load(rc, isa.ImmW(0x44), isa.R(rc))
	b.Region(0x40, mem.Sec(1), mem.Sec(2), mem.Sec(3), mem.Sec(0x5A))
	b.Region(0x44, mem.Pub(5), mem.Pub(6), mem.Pub(7), mem.Pub(8))
	m := core.New(b.MustBuild())
	m.Regs.Write(ra, mem.Pub(0x40))
	return m
}

func TestAnalyzeConcreteV1(t *testing.T) {
	rep, err := Analyze(v1Machine(), Options{Bound: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree() {
		t.Fatal("v1 gadget must be flagged")
	}
	if rep.Violations[0].Kind != sched.VariantV1 {
		t.Fatalf("kind = %v", rep.Violations[0].Kind)
	}
	if rep.Mode != "concrete" || rep.Summary() == "" {
		t.Fatal("report metadata")
	}
}

func TestAnalyzeProcedureTwoPhases(t *testing.T) {
	// Figure 1 gadget: flagged in phase 1 (no hazard detection needed).
	p1, p2, err := AnalyzeProcedure(v1Machine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.SecretFree() {
		t.Fatal("phase 1 must flag the v1 gadget")
	}
	if p2.Mode != "" {
		t.Fatal("phase 2 must not run after a phase-1 finding")
	}

	// Figure 7 gadget: clean in phase 1, flagged only with forwarding
	// hazards — the paper's "f" annotation in Table 2.
	p1, p2, err = AnalyzeProcedure(v4Machine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.SecretFree() {
		t.Fatalf("phase 1 must be clean for the v4 gadget: %s", p1.Summary())
	}
	if p2.SecretFree() {
		t.Fatal("phase 2 must flag the v4 gadget")
	}
	if p2.Violations[0].Kind != sched.VariantV4 {
		t.Fatalf("kind = %v", p2.Violations[0].Kind)
	}
}

func TestAnalyzeRejectsBadBound(t *testing.T) {
	if _, err := Analyze(v1Machine(), Options{Bound: 0}); err == nil {
		t.Fatal("bound 0 must be rejected")
	}
	if _, err := AnalyzeSymbolic(NewSym(isa.NewProgram(1)), Options{Bound: 0}); err == nil {
		t.Fatal("symbolic bound 0 must be rejected")
	}
}

// kocherStyleProgram is the shape of Kocher case 1 with an
// attacker-controlled index: if (x < 4) y = B[A[x] * 2].
func kocherStyleProgram(masked bool) *isa.Program {
	b := isa.NewBuilder(1)
	if masked {
		// x &= 3 before the bounds check: the classic mask mitigation.
		b.Op(ra, isa.OpAnd, isa.R(ra), isa.ImmW(3))
	} else {
		b.Op(ra, isa.OpMov, isa.R(ra))
	}
	b.Br(isa.OpLt, []isa.Operand{isa.R(ra), isa.ImmW(4)}, 3, 7)
	b.Load(rb, isa.ImmW(0x100), isa.R(ra)) // 3: A[x]
	b.Op(rc, isa.OpMul, isa.R(rb), isa.ImmW(2))
	b.Load(rd, isa.ImmW(0x200), isa.R(rc)) // 5: B[A[x]*2]
	// A: 4 public words, then adjacent secrets.
	b.Region(0x100, mem.Pub(1), mem.Pub(2), mem.Pub(3), mem.Pub(4))
	b.Region(0x104, mem.Sec(0xA0), mem.Sec(0xA1), mem.Sec(0xA2), mem.Sec(0xA3))
	for i := mem.Word(0); i < 8; i++ {
		b.Data(0x200+i, mem.Pub(i))
	}
	return b.MustBuild()
}

func TestSymbolicFindsKocherStyleV1(t *testing.T) {
	sm := NewSym(kocherStyleProgram(false))
	sm.SetReg(ra, symx.NewVar("x", mem.Public))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree() {
		t.Fatal("symbolic mode must find the out-of-bounds x")
	}
	v := rep.Violations[0]
	if v.Kind != sched.VariantV1 {
		t.Fatalf("kind = %v", v.Kind)
	}
	// The witness assignment must be out of bounds.
	x, ok := v.Model["x"]
	if !ok {
		t.Fatalf("no witness for x in %v", v.Model)
	}
	if x < 4 {
		t.Fatalf("witness x = %d is in bounds", x)
	}
}

func TestSymbolicMaskedIndexIsClean(t *testing.T) {
	sm := NewSym(kocherStyleProgram(true))
	sm.SetReg(ra, symx.NewVar("x", mem.Public))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SecretFree() {
		t.Fatalf("masked index must be clean, got %s", rep.Summary())
	}
	if rep.Paths == 0 {
		t.Fatal("no paths explored")
	}
}

func TestSymbolicSecretBranchFlagged(t *testing.T) {
	// if (k != 0) ... — branching on a secret leaks through the jump
	// observation even sequentially; this is what distinguishes the
	// C implementations from the FaCT ones in Table 2.
	b := isa.NewBuilder(1)
	b.Br(isa.OpNe, []isa.Operand{isa.R(ra), isa.ImmW(0)}, 2, 3)
	b.Op(rb, isa.OpMov, isa.ImmW(1))
	p := b.MustBuild()
	sm := NewSym(p)
	sm.SetReg(ra, symx.NewVar("k", mem.Secret))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree() {
		t.Fatal("secret branch must be flagged")
	}
	if rep.Violations[0].Obs.Kind != core.OJump {
		t.Fatalf("expected a jump observation, got %s", rep.Violations[0].Obs)
	}
}

func TestSymbolicSelectIsConstantTimeControlFlow(t *testing.T) {
	// rb = select(k, 1, 2): no branch, so no jump observation; the
	// FaCT-style compilation of a secret branch. rb is tainted but
	// never leaves through an observation.
	b := isa.NewBuilder(1)
	b.Op(rb, isa.OpSelect, isa.R(ra), isa.ImmW(1), isa.ImmW(2))
	b.Store(isa.R(rb), isa.ImmW(0x50))
	b.Data(0x50, mem.Pub(0))
	p := b.MustBuild()
	sm := NewSym(p)
	sm.SetReg(ra, symx.NewVar("k", mem.Secret))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SecretFree() {
		t.Fatalf("select-based code must be clean, got %s", rep.Summary())
	}
}

func TestSymbolicV11StoreForward(t *testing.T) {
	// Figure 6 with a symbolic (out-of-bounds-capable) index and a
	// symbolic secret: the speculative store forwards the secret.
	b := isa.NewBuilder(1)
	b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(ra)}, 2, 6)
	b.Store(isa.R(rb), isa.ImmW(0x40), isa.R(ra))
	b.Load(rc, isa.ImmW(0x45))
	b.Load(rc, isa.ImmW(0x48), isa.R(rc))
	b.Region(0x40, mem.Sec(1), mem.Sec(2), mem.Sec(3), mem.Sec(4))
	b.Region(0x44, mem.Pub(5), mem.Pub(6), mem.Pub(7), mem.Pub(8))
	b.Region(0x48, mem.Pub(9), mem.Pub(10), mem.Pub(11), mem.Pub(12))
	sm := NewSym(b.MustBuild())
	sm.SetReg(ra, symx.NewVar("x", mem.Public))
	sm.SetReg(rb, symx.NewVar("k", mem.Secret))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree() {
		t.Fatal("symbolic v1.1 gadget must be flagged")
	}
}

func TestSymbolicV4WithHazards(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Store(isa.ImmW(0), isa.ImmW(3), isa.R(ra))
	b.Load(rc, isa.ImmW(0x43))
	b.Load(rc, isa.ImmW(0x44), isa.R(rc))
	b.Region(0x40, mem.Sec(1), mem.Sec(2), mem.Sec(3), mem.Sec(0x5A))
	b.Region(0x44, mem.Pub(5), mem.Pub(6), mem.Pub(7), mem.Pub(8))
	mk := func() *SymMachine {
		sm := NewSym(b.MustBuild())
		sm.SetReg(ra, symx.CW(0x40))
		return sm
	}
	rep, err := AnalyzeSymbolic(mk(), Options{Bound: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SecretFree() {
		t.Fatal("v4 must need hazard exploration")
	}
	rep, err = AnalyzeSymbolic(mk(), Options{Bound: 20, ForwardHazards: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree() {
		t.Fatal("symbolic v4 gadget must be flagged with hazards on")
	}
	if rep.Violations[0].Kind != sched.VariantV4 {
		t.Fatalf("kind = %v", rep.Violations[0].Kind)
	}
}

func TestSymbolicFenceClean(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(ra)}, 2, 6)
	b.Fence()
	b.Load(rb, isa.ImmW(0x100), isa.R(ra))
	b.Load(rc, isa.ImmW(0x200), isa.R(rb))
	b.Region(0x100, mem.Pub(1), mem.Pub(2), mem.Pub(3), mem.Pub(4))
	b.Region(0x104, mem.Sec(0xA0), mem.Sec(0xA1), mem.Sec(0xA2), mem.Sec(0xA3))
	b.Region(0x200, mem.Pub(0), mem.Pub(0))
	sm := NewSym(b.MustBuild())
	sm.SetReg(ra, symx.NewVar("x", mem.Public))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 20, ForwardHazards: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SecretFree() {
		t.Fatalf("fenced gadget must be clean, got %s", rep.Summary())
	}
}

func TestSymbolicCallRet(t *testing.T) {
	// Call/ret with a secret computed in the callee but never leaked.
	p := isa.NewProgram(1)
	p.Add(1, isa.Call(10, 2))
	p.Add(2, isa.Op(rb, isa.OpAdd, []isa.Operand{isa.R(ra), isa.ImmW(1)}, 3))
	p.Add(10, isa.Op(ra, isa.OpXor, []isa.Operand{isa.R(ra), isa.R(ra)}, 11))
	p.Add(11, isa.Ret())
	p.SetRegion(0x70, make([]mem.Value, 16))
	sm := NewSym(p)
	sm.SetReg(ra, symx.NewVar("k", mem.Secret))
	sm.SetReg(mem.RSP, symx.CW(0x7F))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SecretFree() {
		t.Fatalf("benign call/ret flagged: %s", rep.Summary())
	}
	if rep.Paths == 0 {
		t.Fatal("no paths completed")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Obs: core.ReadObs(0x48, mem.Secret), Kind: sched.VariantV1, Model: map[string]uint64{"x": 9}}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}

// A branch the solver can neither satisfy nor refute within its node
// budget (a nonlinear square root) must not be pruned silently: the
// symbolic report counts the unknown and is truncated, like a run that
// ran out of states.
func TestSymbolicSolverUnknownTruncates(t *testing.T) {
	r := mem.Word(1<<20 + 7)
	b := isa.NewBuilder(1)
	b.Op(rb, isa.OpMul, isa.R(ra), isa.R(ra))                       // 1
	b.Br(isa.OpEq, []isa.Operand{isa.R(rb), isa.ImmW(r * r)}, 3, 4) // 2
	b.Op(rc, isa.OpMov, isa.ImmW(1))                                // 3
	sm := NewSym(b.MustBuild())
	sm.SetReg(ra, symx.NewVar("x", mem.Public))
	rep, err := AnalyzeSymbolic(sm, Options{Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solver == nil || rep.Solver.Unknowns != 1 {
		t.Fatalf("solver stats %+v; want exactly 1 unknown", rep.Solver)
	}
	if !rep.Truncated {
		t.Fatal("a report that pruned on an unknown must be truncated")
	}
}
