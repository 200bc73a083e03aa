package pitchfork

import (
	"fmt"
	"testing"

	"pitchfork/internal/attacks"
	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/symx"
)

// symOf lifts a concrete initial configuration into the symbolic
// domain with every register and memory cell a constant expression.
func symOf(m *core.Machine) *symMachine {
	init := &SymMachine{Prog: m.Prog, Regs: map[isa.Reg]symx.Expr{}, Mem: symx.NewMemory(), PC: m.PC}
	for _, r := range m.Regs.Registers() {
		init.SetReg(r, symx.C(m.Regs.Read(r)))
	}
	for _, a := range m.Mem.Addresses() {
		v, _ := m.Mem.Read(a)
		init.SetMem(a, symx.C(v))
	}
	return newSymMachine(init)
}

// TestStepOracleGallery replays every figure's attacker schedule
// through the concrete machine and, with its inputs as constants,
// through the symbolic domain, and requires the same observations step
// for step. Both domains run the shared core.Pipeline rules, so this
// pins the per-domain halves (evaluation, address resolution, branch
// settling, memory reads) against each other. Figure 2's aliasing
// prediction (execute i : fwd j) is outside the symbolic subset: that
// directive must stall there.
func TestStepOracleGallery(t *testing.T) {
	for _, a := range attacks.Gallery() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			cm := a.New()
			sm := symOf(cm)
			for k, d := range a.Schedule {
				cobs, cerr := cm.Step(d)
				if cerr != nil {
					t.Fatalf("step %d %s: concrete: %v", k, d, cerr)
				}
				succs, serr := sm.Step(d)
				if d.Kind == core.DExecFwd {
					if serr == nil {
						t.Fatalf("step %d %s: the symbolic domain must stall on aliasing prediction", k, d)
					}
					return
				}
				if serr != nil {
					t.Fatalf("step %d %s: symbolic: %v", k, d, serr)
				}
				if len(succs) != 1 || succs[0].M != sm {
					t.Fatalf("step %d %s: want one in-place successor, got %d", k, d, len(succs))
				}
				if got, want := fmt.Sprint(succs[0].Obs), fmt.Sprint(cobs); got != want {
					t.Fatalf("step %d %s: symbolic observations %s, concrete %s", k, d, got, want)
				}
			}
			if a.ID == "fig2" {
				t.Fatal("fig2's schedule must contain an execute:fwd directive")
			}
		})
	}
}
