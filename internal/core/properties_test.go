package core

import (
	"errors"
	"math/rand"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// randomProgram generates a terminating program: n instructions at
// points 1..n, with branches and indirect jumps only targeting
// strictly later points (so all control flow is forward). Data lives
// at 0x100.. with a mix of public and secret cells.
func randomProgram(rng *rand.Rand, n int) *isa.Program {
	p := isa.NewProgram(1)
	const dataBase = 0x100
	const dataLen = 16
	regs := []isa.Reg{ra, rb, rc, rd}
	randReg := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	randAddrArgs := func() []isa.Operand {
		// base + small register-dependent offset, kept in range by
		// masking through data in registers seeded below.
		if rng.Intn(2) == 0 {
			return []isa.Operand{isa.ImmW(dataBase + mem.Word(rng.Intn(dataLen)))}
		}
		return []isa.Operand{isa.ImmW(dataBase), isa.R(isa.Reg(8 + rng.Intn(2)))} // rj/ri hold small indices
	}
	for i := 1; i <= n; i++ {
		pt := isa.Addr(i)
		next := isa.Addr(i + 1)
		switch rng.Intn(7) {
		case 0, 1:
			ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd, isa.OpMul}
			op := ops[rng.Intn(len(ops))]
			p.Add(pt, isa.Op(randReg(), op, []isa.Operand{isa.R(randReg()), isa.ImmW(mem.Word(rng.Intn(64)))}, next))
		case 2:
			p.Add(pt, isa.Load(randReg(), randAddrArgs(), next))
		case 3:
			p.Add(pt, isa.Store(isa.R(randReg()), randAddrArgs(), next))
		case 4:
			if i+2 <= n+1 {
				tgt := isa.Addr(i + 1 + rng.Intn(n+1-i))
				p.Add(pt, isa.Br(isa.OpLt, []isa.Operand{isa.R(randReg()), isa.ImmW(mem.Word(rng.Intn(64)))}, tgt, next))
			} else {
				p.Add(pt, isa.Op(randReg(), isa.OpMov, []isa.Operand{isa.ImmW(1)}, next))
			}
		case 5:
			p.Add(pt, isa.Fence(next))
		default:
			p.Add(pt, isa.Op(randReg(), isa.OpMov, []isa.Operand{isa.ImmW(mem.Word(rng.Intn(8)))}, next))
		}
	}
	for i := 0; i < dataLen; i++ {
		l := mem.Public
		if rng.Intn(3) == 0 {
			l = mem.Secret
		}
		p.SetData(dataBase+isa.Addr(i), mem.V(mem.Word(rng.Intn(250)), l))
	}
	return p
}

func seedMachine(m *Machine, rng *rand.Rand) {
	m.Regs.Write(ra, mem.Pub(mem.Word(rng.Intn(16))))
	m.Regs.Write(rb, mem.Pub(mem.Word(rng.Intn(16))))
	m.Regs.Write(rc, mem.Sec(mem.Word(rng.Intn(16))))
	m.Regs.Write(rd, mem.Pub(mem.Word(rng.Intn(16))))
	m.Regs.Write(isa.Reg(8), mem.Pub(mem.Word(rng.Intn(8))))
	m.Regs.Write(isa.Reg(9), mem.Pub(mem.Word(rng.Intn(8))))
}

// randomSchedule drives m with randomly chosen applicable directives
// (an adversarial scheduler), returning the schedule that was played.
// It biases toward making progress so executions terminate.
func randomSchedule(m *Machine, rng *rand.Rand, maxSteps int) Schedule {
	var sched Schedule
	for step := 0; step < maxSteps; step++ {
		if m.Halted() {
			return sched
		}
		var candidates []Directive
		if in, ok := m.Prog.At(m.PC); ok && m.Buf.Len() < 12 {
			switch in.Kind {
			case isa.KBr:
				candidates = append(candidates, FetchGuess(rng.Intn(2) == 0))
			case isa.KJmpi, isa.KRet:
				candidates = append(candidates, Fetch(), FetchTarget(isa.Addr(1+rng.Intn(12))))
			default:
				candidates = append(candidates, Fetch())
			}
		}
		for i := m.Buf.Min(); i <= m.Buf.Max(); i++ {
			t, _ := m.Buf.Get(i)
			switch t.Kind {
			case TOp, TBr, TJmpi, TLoad:
				candidates = append(candidates, Execute(i))
			case TStore:
				if !t.ValKnown {
					candidates = append(candidates, ExecuteValue(i))
				}
				if !t.AddrKnown {
					candidates = append(candidates, ExecuteAddr(i))
				}
			}
		}
		candidates = append(candidates, Retire())
		// Try candidates in random order until one applies.
		rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		applied := false
		for _, d := range candidates {
			if _, err := m.Step(d); err == nil {
				sched = append(sched, d)
				applied = true
				break
			} else if !errors.Is(err, ErrStall) {
				// Machine fault (e.g. wild read on a non-strict memory
				// cannot happen; just stop).
				return sched
			}
		}
		if !applied {
			return sched // wedged: nothing applicable (should not happen)
		}
	}
	return sched
}

// TestSequentialEquivalenceProperty is Theorem 3.2 / B.7: an
// out-of-order execution that retires N instructions leaves committed
// state ≈-equivalent to the canonical sequential execution of N
// instructions.
func TestSequentialEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := newRng(int64(trial))
		prog := randomProgram(rng, 4+rng.Intn(12))
		m := New(prog)
		seedMachine(m, rng)
		init := m.Clone()

		randomSchedule(m, rng, 400)
		n := m.Retired

		seqM := init.Clone()
		if _, _, err := RunSequential(seqM, n); err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		if !m.ApproxEqual(seqM) {
			t.Fatalf("trial %d: OoO execution (N=%d) diverges from sequential\nprogram points: %v\nOoO regs vs seq regs differ", trial, n, prog.Points())
		}
	}
}

// TestTerminalEquality strengthens the check for complete executions:
// if the random schedule drives the machine to a halt with an empty
// buffer, the final configuration must equal the full sequential one
// (Corollary B.8).
func TestTerminalEquality(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := newRng(int64(1000 + trial))
		prog := randomProgram(rng, 4+rng.Intn(10))
		m := New(prog)
		seedMachine(m, rng)
		init := m.Clone()

		randomSchedule(m, rng, 600)
		if !m.Halted() {
			continue
		}
		seqM := init.Clone()
		if _, _, err := RunSequential(seqM, 10000); err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		if !m.ApproxEqual(seqM) || m.PC != seqM.PC {
			t.Fatalf("trial %d: terminal configurations differ (PC %d vs %d)", trial, m.PC, seqM.PC)
		}
	}
}

// TestLabelStabilityProperty is Theorem B.9 / Corollary B.10: if a
// speculative trace carries no secret labels, the sequential trace of
// the same configuration carries none either.
func TestLabelStabilityProperty(t *testing.T) {
	checked := 0
	for trial := 0; trial < 400 && checked < 150; trial++ {
		rng := newRng(int64(2000 + trial))
		prog := randomProgram(rng, 4+rng.Intn(10))
		m := New(prog)
		seedMachine(m, rng)
		init := m.Clone()

		specM := m.Clone()
		var specTrace Trace
		sched := randomSchedule(specM, rng, 400)
		replay := init.Clone()
		specTrace, err := replay.Run(sched)
		if err != nil {
			t.Fatalf("trial %d: replay: %v", trial, err)
		}
		if specTrace.HasSecret() {
			continue // antecedent does not hold
		}
		checked++
		seqM := init.Clone()
		_, seqTrace, err := RunSequential(seqM, 10000)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		if seqTrace.HasSecret() {
			t.Fatalf("trial %d: speculative trace secret-free but sequential trace leaks: %s", trial, seqTrace)
		}
	}
	if checked < 20 {
		t.Fatalf("too few secret-free speculative traces to be meaningful: %d", checked)
	}
}

// TestDeterminismProperty is Lemma B.1: a configuration and a
// directive determine the successor configuration and observation.
func TestDeterminismProperty(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := newRng(int64(3000 + trial))
		prog := randomProgram(rng, 6)
		m := New(prog)
		seedMachine(m, rng)
		// Walk a random execution; at each step apply the chosen
		// directive to two clones and compare everything.
		probe := m.Clone()
		sched := randomSchedule(probe, rng, 100)
		cur := m.Clone()
		for _, d := range sched {
			c1, c2 := cur.Clone(), cur.Clone()
			o1, e1 := c1.Step(d)
			o2, e2 := c2.Step(d)
			if (e1 == nil) != (e2 == nil) || !Trace(o1).Equal(Trace(o2)) {
				t.Fatalf("trial %d: nondeterministic step %q", trial, d)
			}
			if !c1.Equal(c2) || c1.PC != c2.PC || c1.RSB.String() != c2.RSB.String() {
				t.Fatalf("trial %d: step %q produced diverging configurations", trial, d)
			}
			cur = c1
		}
	}
}

// TestWellFormedScheduleReplay: a schedule recorded from one run must
// replay identically from the same initial configuration.
func TestWellFormedScheduleReplay(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := newRng(int64(4000 + trial))
		prog := randomProgram(rng, 8)
		m := New(prog)
		seedMachine(m, rng)
		init := m.Clone()

		run1 := m.Clone()
		sched := randomSchedule(run1, rng, 300)

		replay1 := init.Clone()
		t1, err1 := replay1.Run(sched)
		replay2 := init.Clone()
		t2, err2 := replay2.Run(sched)
		if (err1 == nil) != (err2 == nil) || !t1.Equal(t2) {
			t.Fatalf("trial %d: replays disagree", trial)
		}
		if !replay1.ApproxEqual(replay2) {
			t.Fatalf("trial %d: replayed states disagree", trial)
		}
	}
}

// TestSCTRandomHarness: sequentially-constant-time straight-line
// programs with no speculation-reachable secrets never violate SCT
// under random schedules; Figure 1's gadget does under its attack
// schedule. This exercises the Def. 3.1 checker itself.
func TestSCTRandomHarness(t *testing.T) {
	// A program whose every observation is public: copies between
	// public cells only.
	b := isa.NewBuilder(1)
	b.Load(ra, isa.ImmW(0x100))
	b.Op(rb, isa.OpAdd, isa.R(ra), isa.ImmW(1))
	b.Store(isa.R(rb), isa.ImmW(0x101))
	b.Data(0x100, mem.Pub(7))
	b.Data(0x101, mem.Pub(0))
	b.Data(0x102, mem.Sec(99)) // a secret exists but is never touched
	prog := b.MustBuild()

	m := New(prog)
	for trial := 0; trial < 50; trial++ {
		rng := newRng(int64(5000 + trial))
		probe := m.Clone()
		sched := randomSchedule(probe, rng, 100)
		if res := CheckSCT(m, sched, 8, rng); res != nil {
			t.Fatalf("trial %d: public-only program flagged: %s\nschedule: %s", trial, res.Reason, sched)
		}
	}
}

// TestVarySecretsPreservesLowEquiv: the C′ generator really produces
// low-equivalent configurations.
func TestVarySecretsPreservesLowEquiv(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := newRng(int64(6000 + trial))
		prog := randomProgram(rng, 6)
		m := New(prog)
		seedMachine(m, rng)
		v := VarySecrets(m, rng)
		if !m.LowEquiv(v) {
			t.Fatalf("trial %d: VarySecrets broke low-equivalence", trial)
		}
	}
}
