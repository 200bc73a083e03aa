package crypto

import (
	"testing"

	"pitchfork/internal/core"
	"pitchfork/internal/ct"
	"pitchfork/internal/pitchfork"
)

// TestAllBuildsCompileAndHalt: every case × mode compiles and runs to
// completion sequentially.
func TestAllBuildsCompileAndHalt(t *testing.T) {
	for _, c := range Cases() {
		for _, mode := range []ct.Mode{ct.ModeC, ct.ModeFaCT} {
			comp, err := c.Build(mode)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, mode, err)
			}
			m := core.New(comp.Prog)
			if _, _, err := core.RunSequential(m, 200000); err != nil {
				t.Fatalf("%s/%s: run: %v", c.Name, mode, err)
			}
			if !m.Halted() {
				t.Fatalf("%s/%s: did not halt (pc=%d)", c.Name, mode, m.PC)
			}
		}
	}
}

// TestAllBuildsSequentiallyConstantTime: the paper chose these case
// studies because they are verified sequentially constant-time; every
// build's canonical sequential trace must be secret-free.
func TestAllBuildsSequentiallyConstantTime(t *testing.T) {
	for _, c := range Cases() {
		for _, mode := range []ct.Mode{ct.ModeC, ct.ModeFaCT} {
			comp, err := c.Build(mode)
			if err != nil {
				t.Fatal(err)
			}
			m := core.New(comp.Prog)
			_, trace, err := core.RunSequential(m, 200000)
			if err != nil {
				t.Fatal(err)
			}
			if trace.HasSecret() {
				t.Fatalf("%s/%s: sequential trace leaks: first secret %s",
					c.Name, mode, trace[trace.FirstSecret()])
			}
		}
	}
}

// TestTable2 reproduces the paper's Table 2 pattern:
//
//	curve25519-donna              –   –
//	libsodium secretbox           ✓   –
//	OpenSSL ssl3 record validate  ✓   f
//	OpenSSL MEE-CBC               ✓   f
//
// Every flagged cell matches. The paper's clean cells exhaust the
// default 200k-state budget in phase 1 at bound 250, so they read "?"
// (inconclusive): the procedure found no violation but cannot claim
// the build clean.
func TestTable2(t *testing.T) {
	rows, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]Finding{
		"curve25519-donna":             {Inconclusive, Inconclusive},
		"libsodium secretbox":          {Flagged, Inconclusive},
		"OpenSSL ssl3 record validate": {Flagged, FlaggedFwd},
		"OpenSSL MEE-CBC":              {Flagged, FlaggedFwd},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Case]
		if !ok {
			t.Errorf("unexpected case %q", r.Case)
			continue
		}
		if r.C != w[0] || r.FaCT != w[1] {
			t.Errorf("%s: got C=%s FaCT=%s, want C=%s FaCT=%s",
				r.Case, r.C, r.FaCT, w[0], w[1])
		}
	}
	t.Logf("\n%s", Render(rows))
}

// TestTable2TruncatedIsInconclusive pins that a phase giving up on its
// state budget never reads as clean: with a budget far too small to
// explore Donna, the cell is Inconclusive, not Clean.
func TestTable2TruncatedIsInconclusive(t *testing.T) {
	got, err := Analyze(Cases()[0], ct.ModeC, Options{MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got != Inconclusive {
		t.Fatalf("Donna C with MaxStates 100: finding = %s, want %s", got, Inconclusive)
	}
}

// TestFig9SecretboxGadget pins the secretbox C finding to the Fig. 9
// shape: the violating observation happens while the canary branch is
// still speculatively unresolved (a v1-family leak), and the leaked
// address is secret-tainted.
func TestFig9SecretboxGadget(t *testing.T) {
	c := Cases()[1]
	comp, err := c.Build(ct.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pitchfork.Analyze(core.New(comp.Prog), pitchfork.Options{
		Bound:       pitchfork.BoundNoHazards,
		StopAtFirst: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFree() {
		t.Fatal("secretbox C build must be flagged")
	}
	v := rep.Violations[0]
	if !v.Obs.Secret() {
		t.Fatal("violation must carry a secret label")
	}
	if v.Kind.String() != "spectre-v1" && v.Kind.String() != "spectre-v1.1" {
		t.Fatalf("expected a branch-speculation variant, got %s", v.Kind)
	}
}

// TestFig10MEEGadget pins the MEE FaCT finding to the Fig. 10 shape:
// only forwarding-hazard schedules expose it, and it classifies as
// Spectre v4 (stale store window — the speculative return).
func TestFig10MEEGadget(t *testing.T) {
	c := Cases()[3]
	comp, err := c.Build(ct.ModeFaCT)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *core.Machine { return core.New(comp.Prog) }
	p1, err := pitchfork.Analyze(mk(), pitchfork.Options{
		Bound:       pitchfork.BoundNoHazards,
		StopAtFirst: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.SecretFree() {
		t.Fatalf("MEE FaCT must be clean without hazard detection, got %s", p1.Summary())
	}
	p2, err := pitchfork.Analyze(mk(), pitchfork.Options{
		Bound:          pitchfork.BoundWithHazards,
		ForwardHazards: true,
		StopAtFirst:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.SecretFree() {
		t.Fatal("MEE FaCT must be flagged with forwarding-hazard detection")
	}
}

// TestCoalescePreservesSequentialResults: the register-reuse artifact
// must not change architectural behaviour — the coalesced and
// uncoalesced FaCT builds compute identical final memories.
func TestCoalescePreservesSequentialResults(t *testing.T) {
	for _, idx := range []int{2, 3} { // ssl3, MEE
		c := Cases()[idx]
		plain, err := ct.Compile(c.srcFaCT, ct.ModeFaCT)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := c.Build(ct.ModeFaCT)
		if err != nil {
			t.Fatal(err)
		}
		m1 := core.New(plain.Prog)
		if _, _, err := core.RunSequential(m1, 200000); err != nil {
			t.Fatal(err)
		}
		m2 := core.New(fused.Prog)
		if _, _, err := core.RunSequential(m2, 200000); err != nil {
			t.Fatal(err)
		}
		if !m1.Mem.Equal(m2.Mem) {
			t.Fatalf("%s: coalescing changed architectural results", c.Name)
		}
	}
}

// TestDonnaComputesDeterministically: the ladder is a real computation
// whose output depends on the secret scalar.
func TestDonnaComputesDeterministically(t *testing.T) {
	comp, err := Cases()[0].Build(ct.ModeC)
	if err != nil {
		t.Fatal(err)
	}
	m := core.New(comp.Prog)
	if _, _, err := core.RunSequential(m, 100000); err != nil {
		t.Fatal(err)
	}
	out, err := m.Mem.Read(comp.GlobalAddr["out"])
	if err != nil {
		t.Fatal(err)
	}
	if !out.L.IsSecret() {
		t.Fatal("ladder output must be secret-labeled")
	}
	m2 := core.New(comp.Prog)
	if _, _, err := core.RunSequential(m2, 100000); err != nil {
		t.Fatal(err)
	}
	out2, _ := m2.Mem.Read(comp.GlobalAddr["out"])
	if out != out2 {
		t.Fatal("nondeterministic ladder")
	}
}
