package core

import "pitchfork/internal/mem"

// hasher absorbs a word sequence: h ← Mix64(h ⊕ w), seeded from
// mem.HashSeed. Order-sensitive; the fingerprint absorbs whole words
// rather than hashing byte-at-a-time, since exploration states are
// fingerprinted on the hot path and a machine holds hundreds of words.
type hasher struct{ h uint64 }

func newHasher() hasher { return hasher{h: mem.HashSeed} }

func (f *hasher) word(w uint64) { f.h = mem.Mix64(f.h ^ w) }

func (f *hasher) bool(b bool) {
	if b {
		f.word(1)
	} else {
		f.word(0)
	}
}

func (f *hasher) value(v mem.Value) {
	f.word(v.W)
	f.word(uint64(v.L))
}

// Fingerprint hashes the machine's dynamic configuration — PC, retired
// count, register file, data memory, reorder-buffer contents, and the
// RSB journal — to 64 bits. Machines with equal configurations produce
// equal fingerprints, so the schedule explorer can use the fingerprint
// to prune re-converged exploration states (distinct configurations may
// collide with probability ~2^-64; callers trading exactness for speed
// accept that). The static program and the machine parameters are not
// hashed: they are constant across one exploration.
func (m *Machine) Fingerprint() uint64 {
	// Register file and memory maintain incremental order-independent
	// hash sums (updated on every Write), so their contribution is
	// O(1) here — crucial, since the dedup table fingerprints every
	// explored state.
	return m.Hash(hashValue, m.Regs.HashSum(), m.Mem.HashSum())
}

func hashValue(v mem.Value) uint64 { return mem.Mix64(v.W) ^ uint64(v.L) }

// Hash fingerprints the pipeline — PC, retired count, the domain's
// state words, reorder-buffer contents, and the RSB journal — with
// data values hashed by hv. A domain passes the words that summarize
// the rest of its configuration (register-file and memory hash sums,
// and for the symbolic domain the path condition).
func (p *Pipeline[V]) Hash(hv func(V) uint64, state ...uint64) uint64 {
	f := newHasher()
	f.word(uint64(p.PC))
	f.word(uint64(p.Retired))
	for _, w := range state {
		f.word(w)
	}
	f.word(uint64(p.Buf.Min()))
	for i := p.Buf.Min(); i <= p.Buf.Max(); i++ {
		t, _ := p.Buf.Get(i)
		t.hashInto(&f, hv)
	}
	p.RSB.hashInto(&f)
	return f.h
}

// hashInto feeds every semantically meaningful transient field to the
// hasher, data values through hv. Fields that are inert for the
// current Kind still hash (they are zero-valued there), which keeps
// the function branch-free and future-proof against new resolution
// flags.
func (t *TransientOf[V]) hashInto(f *hasher, hv func(V) uint64) {
	f.word(uint64(t.Kind))
	f.word(uint64(t.Dst))
	f.word(uint64(t.Op))
	f.word(uint64(len(t.Args)))
	for _, a := range t.Args {
		f.bool(a.IsReg)
		f.word(uint64(a.Reg))
		f.value(a.Imm)
	}
	f.word(hv(t.Val))
	f.bool(t.FromLoad)
	f.word(uint64(t.Dep))
	f.word(t.DataAddr)
	f.word(uint64(t.PP))
	f.word(uint64(t.Guess))
	f.word(uint64(t.True))
	f.word(uint64(t.False))
	f.word(uint64(t.Target))
	f.bool(t.Src.IsReg)
	f.word(uint64(t.Src.Reg))
	f.value(t.Src.Imm)
	f.bool(t.ValKnown)
	f.word(hv(t.SVal))
	f.bool(t.AddrKnown)
	f.value(t.SAddr)
	f.bool(t.PredFwd)
	f.word(hv(t.PredVal))
	f.word(uint64(t.PredFrom))
}

// Hash folds the RSB journal (policy included) to 64 bits — exported
// so non-core domains of the exploration engine can fingerprint the
// RSB they embed.
func (s *RSB) Hash() uint64 {
	f := newHasher()
	s.hashInto(&f)
	return f.h
}

func (s *RSB) hashInto(f *hasher) {
	f.word(uint64(s.policy))
	for _, e := range s.entries {
		f.word(uint64(e.idx))
		f.bool(e.isPush)
		f.word(uint64(e.target))
	}
}
