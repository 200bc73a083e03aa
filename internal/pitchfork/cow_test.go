package pitchfork

import (
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/sched"
	"pitchfork/internal/symx"
)

// TestSymbolicCloneIndependence drives one side of a symbolic fork
// through every buffer mutation the symbolic step rules make — store
// value and address resolution (entry edits), a misspeculated branch
// (truncate, then append the resolved jump), and retirement — and
// checks that the sibling's reorder buffer and fingerprint never
// change.
func TestSymbolicCloneIndependence(t *testing.T) {
	b := isa.NewBuilder(1)
	b.Op(rb, isa.OpMov, isa.ImmW(7))                            // 1
	b.Store(isa.R(rb), isa.ImmW(0x40))                          // 2
	b.Br(isa.OpGt, []isa.Operand{isa.ImmW(4), isa.R(ra)}, 4, 5) // 3: 4 > 9 is false
	b.Load(rc, isa.ImmW(0x44))                                  // 4
	b.Region(0x40, mem.Pub(1), mem.Pub(2), mem.Pub(3), mem.Pub(4), mem.Pub(5))
	init := NewSym(b.MustBuild())
	init.SetReg(ra, symx.CW(9))

	base := newSymMachine(init)
	step := func(m sched.Machine, d core.Directive) {
		t.Helper()
		succs, err := m.Step(d)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(succs) != 1 || succs[0].M != m {
			t.Fatalf("%s: want one in-place successor, got %d", d, len(succs))
		}
	}
	for _, d := range []core.Directive{core.Fetch(), core.Fetch(), core.FetchGuess(true), core.Fetch(), core.Execute(1)} {
		step(base, d)
	}

	views := func(m sched.Machine) []sched.TransientView {
		var out []sched.TransientView
		for i := m.BufMin(); i <= m.BufMax(); i++ {
			v, ok := m.View(i)
			if !ok {
				t.Fatalf("view %d missing in [%d,%d]", i, m.BufMin(), m.BufMax())
			}
			out = append(out, v)
		}
		return out
	}
	wantViews, wantFP := views(base), base.Fingerprint()
	wantMin, wantMax := base.BufMin(), base.BufMax()

	fork := base.Clone()
	for _, d := range []core.Directive{
		core.ExecuteValue(2), // edit a shared entry
		core.ExecuteAddr(2),  // edit it again
		core.Execute(3),      // mispredicted: truncate 4, append the jump at 3
		core.Retire(),        // the op's value
		core.Retire(),        // the store
	} {
		step(fork, d)
	}
	if fork.Fingerprint() == wantFP {
		t.Fatal("the stepped fork still fingerprints like its sibling")
	}
	if v, ok := fork.View(3); !ok || v.Kind != core.TJump {
		t.Fatalf("fork buffer(3) = %+v, %t; want the resolved jump", v, ok)
	}

	if base.BufMin() != wantMin || base.BufMax() != wantMax {
		t.Fatalf("sibling buffer range [%d,%d], want [%d,%d]", base.BufMin(), base.BufMax(), wantMin, wantMax)
	}
	got := views(base)
	for k := range wantViews {
		if got[k] != wantViews[k] {
			t.Errorf("sibling view %d = %+v, want %+v", wantMin+k, got[k], wantViews[k])
		}
	}
	if fp := base.Fingerprint(); fp != wantFP {
		t.Fatalf("sibling fingerprint %#x, want %#x", fp, wantFP)
	}
}
