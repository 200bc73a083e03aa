package symx

// The incremental constraint engine behind Solver: an abstract
// interval + known-bits domain with sound per-opcode transfer
// functions, fixpoint propagation over a conjunction (seeded from the
// parent condition's fixpoint, so child conditions pay for one new
// conjunct), an incremental candidate evaluator that re-checks only
// the conjuncts whose variables changed, and a bounded fingerprint-
// keyed result cache shared across exploration workers.
//
// The domains over-approximate the model set, so an empty domain is a
// proof of unsatisfiability and a domain never excludes a model. The
// solver's search (solver.go) relies on exactly that: it splits
// domains and re-propagates, refuting a branch only when its domains
// empty.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// ---------------------------------------------------------------------
// Abstract domain: unsigned interval × known bits.
// ---------------------------------------------------------------------

// vdom abstracts a set of 64-bit words as the intersection of an
// unsigned interval [lo,hi] and a bit pattern (bit i is constrained
// iff known has it set, and then must equal the corresponding bit of
// bit). The domain is sound by construction: every operation keeps the
// abstract set a superset of the concrete one, so an empty vdom is a
// proof of unsatisfiability — never a heuristic guess.
type vdom struct {
	lo, hi     mem.Word
	known, bit mem.Word
}

var (
	fullDom  = vdom{lo: 0, hi: ^mem.Word(0)}
	emptyDom = vdom{lo: ^mem.Word(0), hi: 0}
	// boolDom abstracts a comparison result: {0, 1}.
	boolDom = vdom{lo: 0, hi: 1, known: ^mem.Word(1), bit: 0}
)

func domConst(w mem.Word) vdom {
	return vdom{lo: w, hi: w, known: ^mem.Word(0), bit: w}
}

func ivl(lo, hi mem.Word) vdom { return vdom{lo: lo, hi: hi} }

func (d vdom) empty() bool { return d.lo > d.hi }

func (d vdom) isFull() bool { return d == fullDom }

func (d vdom) singleton() (mem.Word, bool) { return d.lo, d.lo == d.hi }

// definitelyNonzero reports that no word in the domain is zero.
func (d vdom) definitelyNonzero() bool { return d.lo > 0 || d.bit != 0 }

func (d vdom) contains(w mem.Word) bool {
	return w >= d.lo && w <= d.hi && w&d.known == d.bit
}

// norm reconciles the interval and bit halves: the interval shrinks to
// its least and greatest words matching the pattern (so both bounds
// are members), the shared leading bits of the interval become known,
// and a disagreement collapses to the empty domain.
func (d vdom) norm() vdom {
	d.bit &= d.known
	lo, okLo := leastAtLeast(d.lo, d.known, d.bit)
	hi, okHi := greatestAtMost(d.hi, d.known, d.bit)
	if !okLo || !okHi || lo > hi {
		return emptyDom
	}
	d.lo, d.hi = lo, hi
	if n := bits.Len64(uint64(d.lo ^ d.hi)); n < 64 {
		pm := ^mem.Word(0) << uint(n)
		pv := d.lo & pm
		if (pv^d.bit)&pm&d.known != 0 {
			return emptyDom
		}
		d.known |= pm
		d.bit = (d.bit &^ pm) | pv
	}
	if d.lo == d.hi {
		d.known, d.bit = ^mem.Word(0), d.lo
	}
	return d
}

// leastAtLeast returns the least word w ≥ lo with w&known == bit, and
// false when there is none.
func leastAtLeast(lo, known, bit mem.Word) (mem.Word, bool) {
	diff := (lo ^ bit) & known
	if diff == 0 {
		return lo, true
	}
	p := 63 - bits.LeadingZeros64(uint64(diff)) // highest disagreeing known bit
	if bit>>uint(p)&1 == 1 {
		// lo has 0 where the pattern needs 1: keep lo above p, then the
		// pattern with every free bit clear.
		m := lowMask(p + 1)
		return lo&^m | bit&m, true
	}
	// lo has 1 where the pattern needs 0: the prefix above p must grow,
	// at the lowest free bit above p that lo has clear.
	free := ^known &^ lo &^ lowMask(p+1)
	if free == 0 {
		return 0, false
	}
	q := bits.TrailingZeros64(uint64(free))
	return lo&^lowMask(q+1) | 1<<uint(q) | bit&lowMask(q), true
}

// greatestAtMost returns the greatest word w ≤ hi with w&known == bit:
// the complement of the least word ≥ ^hi matching the complemented
// pattern.
func greatestAtMost(hi, known, bit mem.Word) (mem.Word, bool) {
	w, ok := leastAtLeast(^hi, known, ^bit&known)
	return ^w, ok
}

// meetInterval intersects with [lo,hi].
func (d vdom) meetInterval(lo, hi mem.Word) vdom {
	if lo > d.lo {
		d.lo = lo
	}
	if hi < d.hi {
		d.hi = hi
	}
	return d.norm()
}

// meetBits intersects with the pattern (mask, val).
func (d vdom) meetBits(mask, val mem.Word) vdom {
	if (d.bit^val)&d.known&mask != 0 {
		return emptyDom
	}
	d.known |= mask
	d.bit = (d.bit &^ mask) | (val & mask)
	return d.norm()
}

// domJoin is the lattice join of two non-empty domains (set union,
// over-approximated).
func domJoin(a, b vdom) vdom {
	out := vdom{lo: a.lo, hi: a.hi}
	if b.lo < out.lo {
		out.lo = b.lo
	}
	if b.hi > out.hi {
		out.hi = b.hi
	}
	out.known = a.known & b.known &^ (a.bit ^ b.bit)
	out.bit = a.bit & out.known
	return out.norm()
}

// lowMask returns a word with the n lowest bits set.
func lowMask(n int) mem.Word {
	if n >= 64 {
		return ^mem.Word(0)
	}
	return (mem.Word(1) << uint(n)) - 1
}

// trailingKnown counts how many low bits are known in both operands.
func trailingKnown(a, b vdom) int {
	m := a.known & b.known
	return bits.TrailingZeros64(uint64(^m))
}

// The transfer functions below take non-empty operands: aevalOp
// answers ⊥ itself when an operand is empty.

func domAdd(a, b vdom) vdom {
	d := fullDom
	cl := a.lo > ^mem.Word(0)-b.lo
	ch := a.hi > ^mem.Word(0)-b.hi
	if cl == ch { // the sum wraps for all extremes or for none
		d = ivl(a.lo+b.lo, a.hi+b.hi)
	}
	// Low bits of a sum depend only on low bits of the operands, so
	// they survive even a wrapping interval.
	if tz := trailingKnown(a, b); tz > 0 {
		m := lowMask(tz)
		d = d.meetBits(m, (a.bit+b.bit)&m)
	}
	return d.norm()
}

func domSub(a, b vdom) vdom {
	d := fullDom
	if a.lo >= b.hi || a.hi < b.lo { // no borrow anywhere, or borrow everywhere
		d = ivl(a.lo-b.hi, a.hi-b.lo)
	}
	if tz := trailingKnown(a, b); tz > 0 {
		m := lowMask(tz)
		d = d.meetBits(m, (a.bit-b.bit)&m)
	}
	return d.norm()
}

func domNeg(a vdom) vdom {
	if w, ok := a.singleton(); ok {
		return domConst(-w)
	}
	if a.lo > 0 {
		return ivl(-a.hi, -a.lo)
	}
	return fullDom
}

func domNot(a vdom) vdom {
	return vdom{lo: ^a.hi, hi: ^a.lo, known: a.known, bit: ^a.bit & a.known}.norm()
}

func domAnd(a, b vdom) vdom {
	known1 := a.known & a.bit & b.known & b.bit
	known0 := (a.known &^ a.bit) | (b.known &^ b.bit)
	hi := a.hi
	if b.hi < hi {
		hi = b.hi
	}
	return vdom{lo: 0, hi: hi, known: known0 | known1, bit: known1}.norm()
}

func domOr(a, b vdom) vdom {
	known1 := (a.known & a.bit) | (b.known & b.bit)
	known0 := a.known &^ a.bit & b.known &^ b.bit
	lo := a.lo
	if b.lo > lo {
		lo = b.lo
	}
	hi := lowMask(bits.Len64(uint64(a.hi | b.hi)))
	return vdom{lo: lo, hi: hi, known: known0 | known1, bit: known1}.norm()
}

func domXor(a, b vdom) vdom {
	known := a.known & b.known
	return vdom{lo: 0, hi: ^mem.Word(0), known: known, bit: (a.bit ^ b.bit) & known}.norm()
}

func domMul(a, b vdom) vdom {
	d := fullDom
	if hi, _ := bits.Mul64(uint64(a.hi), uint64(b.hi)); hi == 0 {
		d = ivl(a.lo*b.lo, a.hi*b.hi)
	}
	// As for sums, the low bits of a product depend only on the low
	// bits of the factors.
	if tz := trailingKnown(a, b); tz > 0 {
		m := lowMask(tz)
		d = d.meetBits(m, (a.bit*b.bit)&m)
	}
	return d
}

func domDiv(a, b vdom) vdom {
	if b.lo > 0 {
		return ivl(a.lo/b.hi, a.hi/b.lo)
	}
	if b.hi == 0 {
		return domConst(0) // x/0 = 0
	}
	return ivl(0, a.hi) // x/0 = 0, and x/y ≤ x otherwise
}

func domMod(a, b vdom) vdom {
	hi := a.hi
	if b.hi > 0 && b.hi-1 < hi {
		hi = b.hi - 1
	}
	if b.hi == 0 {
		hi = 0 // x%0 = 0
	}
	return ivl(0, hi)
}

func domShl(a, b vdom) vdom {
	s, ok := b.singleton()
	if !ok {
		return fullDom
	}
	k := int(s & 63)
	d := vdom{lo: 0, hi: ^mem.Word(0), known: a.known<<uint(k) | lowMask(k), bit: a.bit << uint(k)}
	if bits.Len64(uint64(a.hi))+k <= 64 {
		d.lo, d.hi = a.lo<<uint(k), a.hi<<uint(k)
	}
	return d.norm()
}

func domShr(a, b vdom) vdom {
	s, ok := b.singleton()
	if !ok {
		return ivl(0, a.hi) // a right shift never grows a word
	}
	k := int(s & 63)
	var highKnown mem.Word
	if k > 0 {
		highKnown = ^(^mem.Word(0) >> uint(k)) // top k bits are zero
	}
	return vdom{lo: a.lo >> uint(k), hi: a.hi >> uint(k),
		known: a.known>>uint(k) | highKnown, bit: a.bit >> uint(k)}.norm()
}

func domSar(a, b vdom) vdom {
	if a.hi < 1<<63 { // sign bit provably clear: logical shift
		return domShr(a, b)
	}
	return fullDom
}

// domCmpU decides an unsigned comparison (or Eq/Ne) when the operand
// domains allow, returning {0}, {1}, or {0,1}.
func domCmpU(code isa.Opcode, a, b vdom) vdom {
	disjoint := a.hi < b.lo || b.hi < a.lo || (a.bit^b.bit)&a.known&b.known != 0
	as, aok := a.singleton()
	bs, bok := b.singleton()
	same := aok && bok && as == bs
	switch code {
	case isa.OpEq:
		if disjoint {
			return domConst(0)
		}
		if same {
			return domConst(1)
		}
	case isa.OpNe:
		if disjoint {
			return domConst(1)
		}
		if same {
			return domConst(0)
		}
	case isa.OpLt:
		if a.hi < b.lo {
			return domConst(1)
		}
		if a.lo >= b.hi {
			return domConst(0)
		}
	case isa.OpLe:
		if a.hi <= b.lo {
			return domConst(1)
		}
		if a.lo > b.hi {
			return domConst(0)
		}
	case isa.OpGt:
		if a.lo > b.hi {
			return domConst(1)
		}
		if a.hi <= b.lo {
			return domConst(0)
		}
	case isa.OpGe:
		if a.lo >= b.hi {
			return domConst(1)
		}
		if a.hi < b.lo {
			return domConst(0)
		}
	}
	return boolDom
}

// aeval abstractly evaluates an expression over the variable domains.
func aeval(e Expr, vidx map[string]int, doms []vdom) vdom {
	switch x := e.(type) {
	case Const:
		return domConst(x.V.W)
	case Var:
		if i, ok := vidx[x.Name]; ok {
			return doms[i]
		}
		return fullDom
	case Op:
		return aevalOp(x, vidx, doms)
	}
	return fullDom
}

func aevalOp(o Op, vidx map[string]int, doms []vdom) vdom {
	var buf [opArgBuf]vdom
	args := buf[:0]
	if len(o.Args) > opArgBuf {
		args = make([]vdom, 0, len(o.Args))
	}
	points := true
	for _, a := range o.Args {
		d := aeval(a, vidx, doms)
		if d.empty() {
			return emptyDom
		}
		points = points && d.lo == d.hi
		args = append(args, d)
	}
	if points {
		// Every operand is a single word: the opcode itself is exact.
		var vbuf [opArgBuf]mem.Value
		vals := vbuf[:0]
		for _, d := range args {
			vals = append(vals, mem.Pub(d.lo))
		}
		if v, err := isa.Eval(o.Code, vals); err == nil {
			return domConst(v.W)
		}
		return fullDom
	}
	// Arity is validated defensively; Apply-built trees always conform.
	bin := func(f func(a, b vdom) vdom) vdom {
		if len(args) != 2 {
			return fullDom
		}
		return f(args[0], args[1])
	}
	un := func(f func(a vdom) vdom) vdom {
		if len(args) != 1 {
			return fullDom
		}
		return f(args[0])
	}
	switch o.Code {
	case isa.OpAdd:
		if len(args) == 0 {
			return fullDom
		}
		d := args[0]
		for _, a := range args[1:] {
			d = domAdd(d, a)
		}
		return d
	case isa.OpSub:
		return bin(domSub)
	case isa.OpMul:
		return bin(domMul)
	case isa.OpDiv:
		return bin(domDiv)
	case isa.OpMod:
		return bin(domMod)
	case isa.OpAnd:
		return bin(domAnd)
	case isa.OpOr:
		return bin(domOr)
	case isa.OpXor:
		return bin(domXor)
	case isa.OpShl:
		return bin(domShl)
	case isa.OpShr:
		return bin(domShr)
	case isa.OpSar:
		return bin(domSar)
	case isa.OpNot:
		return un(domNot)
	case isa.OpNeg:
		return un(domNeg)
	case isa.OpMov:
		return un(func(a vdom) vdom { return a })
	case isa.OpEq, isa.OpNe, isa.OpLt, isa.OpLe, isa.OpGt, isa.OpGe:
		return bin(func(a, b vdom) vdom { return domCmpU(o.Code, a, b) })
	case isa.OpSlt, isa.OpSle, isa.OpSgt, isa.OpSge:
		return boolDom
	case isa.OpSelect:
		if len(args) != 3 {
			return fullDom
		}
		if args[0].definitelyNonzero() {
			return args[1]
		}
		if w, ok := args[0].singleton(); ok && w == 0 {
			return args[2]
		}
		return domJoin(args[1], args[2])
	case isa.OpSucc: // v0 - 1 (stack grows down)
		return un(func(a vdom) vdom { return domSub(a, domConst(1)) })
	case isa.OpPred: // v0 + 1
		return un(func(a vdom) vdom { return domAdd(a, domConst(1)) })
	}
	return fullDom
}

// ---------------------------------------------------------------------
// Constraint refinement and fixpoint propagation.
// ---------------------------------------------------------------------

// linVar matches e ≡ x + off for a single variable x (covering the
// bare variable, Apply-normalized additions, and x - const), which is
// the shape path conditions overwhelmingly take: concretization pins
// eq(add(x, base), addr) and branches test cmp(x, bound).
func linVar(e Expr) (name string, off mem.Word, ok bool) {
	switch x := e.(type) {
	case Var:
		return x.Name, 0, true
	case Op:
		switch x.Code {
		case isa.OpAdd:
			for _, a := range x.Args {
				if v, isC := a.Concrete(); isC {
					off += v.W
					continue
				}
				if vv, isV := a.(Var); isV && name == "" {
					name = vv.Name
					continue
				}
				return "", 0, false
			}
			if name != "" {
				return name, off, true
			}
		case isa.OpSub:
			if len(x.Args) == 2 {
				if vv, isV := x.Args[0].(Var); isV {
					if c, isC := x.Args[1].Concrete(); isC {
						return vv.Name, -c.W, true
					}
				}
			}
		}
	}
	return "", 0, false
}

// negRel returns the complement relation (¬(a < b) ⇔ a ≥ b, …).
func negRel(code isa.Opcode) isa.Opcode {
	switch code {
	case isa.OpEq:
		return isa.OpNe
	case isa.OpNe:
		return isa.OpEq
	case isa.OpLt:
		return isa.OpGe
	case isa.OpLe:
		return isa.OpGt
	case isa.OpGt:
		return isa.OpLe
	case isa.OpGe:
		return isa.OpLt
	case isa.OpSlt:
		return isa.OpSge
	case isa.OpSle:
		return isa.OpSgt
	case isa.OpSgt:
		return isa.OpSle
	case isa.OpSge:
		return isa.OpSlt
	}
	return code
}

// flipRel mirrors a relation across its operands (a < b ⇔ b > a).
func flipRel(code isa.Opcode) isa.Opcode {
	switch code {
	case isa.OpLt:
		return isa.OpGt
	case isa.OpLe:
		return isa.OpGe
	case isa.OpGt:
		return isa.OpLt
	case isa.OpGe:
		return isa.OpLe
	}
	return code // Eq, Ne are symmetric
}

// refineSide narrows the domain of a variable appearing linearly on
// one side of "e REL other". Returns false on a proven-empty domain.
func refineSide(e Expr, rel isa.Opcode, other vdom, vidx map[string]int, doms []vdom) bool {
	name, off, ok := linVar(e)
	if !ok {
		return true
	}
	i, ok := vidx[name]
	if !ok {
		return true
	}
	var tlo, thi mem.Word // bounds on t = x + off
	switch rel {
	case isa.OpEq:
		tlo, thi = other.lo, other.hi
	case isa.OpNe:
		if s, single := other.singleton(); single {
			v := s - off
			d := doms[i]
			if w, one := d.singleton(); one && w == v {
				return false
			}
			if d.lo == v {
				d.lo++
			} else if d.hi == v {
				d.hi--
			} else {
				return true
			}
			d = d.norm()
			if d.empty() {
				return false
			}
			doms[i] = d
		}
		return true
	case isa.OpLt:
		if other.hi == 0 {
			return false // t < 0 is unsatisfiable
		}
		tlo, thi = 0, other.hi-1
	case isa.OpLe:
		tlo, thi = 0, other.hi
	case isa.OpGt:
		if other.lo == ^mem.Word(0) {
			return false // t > max is unsatisfiable
		}
		tlo, thi = other.lo+1, ^mem.Word(0)
	case isa.OpGe:
		tlo, thi = other.lo, ^mem.Word(0)
	default:
		return true
	}
	xlo, xhi := tlo-off, thi-off
	if xlo > xhi {
		return true // the shifted interval wraps; skip (sound)
	}
	d := doms[i].meetInterval(xlo, xhi)
	if d.empty() {
		return false
	}
	doms[i] = d
	return true
}

// refineAndMask handles bit-test conjuncts: and(x, m) = 0 pins the
// masked bits of x to zero; and(x, m) ≠ 0 with a single-bit mask pins
// that bit to one.
func refineAndMask(o Op, truthy bool, vidx map[string]int, doms []vdom) bool {
	var v Var
	var m mem.Word
	if c, ok := o.Args[1].Concrete(); ok {
		vv, isV := o.Args[0].(Var)
		if !isV {
			return true
		}
		v, m = vv, c.W
	} else if c, ok := o.Args[0].Concrete(); ok {
		vv, isV := o.Args[1].(Var)
		if !isV {
			return true
		}
		v, m = vv, c.W
	} else {
		return true
	}
	i, ok := vidx[v.Name]
	if !ok {
		return true
	}
	var d vdom
	switch {
	case !truthy:
		d = doms[i].meetBits(m, 0)
	case m != 0 && m&(m-1) == 0:
		d = doms[i].meetBits(m, m)
	default:
		return true
	}
	if d.empty() {
		return false
	}
	doms[i] = d
	return true
}

// refineConstraint narrows the variable domains under one conjunct.
// Returns false only when the domains prove the conjunct has no model
// — a definite UNSAT, by soundness of the domain operations.
func refineConstraint(c Constraint, vidx map[string]int, doms []vdom) bool {
	d := aeval(c.E, vidx, doms)
	if d.empty() {
		return false
	}
	if c.Truthy {
		if w, ok := d.singleton(); ok && w == 0 {
			return false
		}
	} else if d.definitelyNonzero() {
		return false
	}
	switch e := c.E.(type) {
	case Var:
		i, ok := vidx[e.Name]
		if !ok {
			return true
		}
		var nd vdom
		if c.Truthy {
			nd = doms[i]
			if nd.lo == 0 {
				nd.lo = 1
				nd = nd.norm()
			}
		} else {
			nd = doms[i].meetInterval(0, 0)
		}
		if nd.empty() {
			return false
		}
		doms[i] = nd
	case Op:
		return refineOp(e, c.Truthy, vidx, doms)
	}
	return true
}

func refineOp(o Op, truthy bool, vidx map[string]int, doms []vdom) bool {
	if o.Code == isa.OpAnd && len(o.Args) == 2 {
		return refineAndMask(o, truthy, vidx, doms)
	}
	rel := o.Code
	if !rel.IsComparison() || len(o.Args) != 2 {
		return true
	}
	if !truthy {
		rel = negRel(rel)
	}
	switch rel {
	case isa.OpSlt, isa.OpSle, isa.OpSgt, isa.OpSge:
		return true // signed refinement not modeled
	}
	da := aeval(o.Args[0], vidx, doms)
	db := aeval(o.Args[1], vidx, doms)
	if da.empty() || db.empty() {
		return false
	}
	if res := domCmpU(rel, da, db); res == domConst(0) {
		return false
	}
	if !refineSide(o.Args[0], rel, db, vidx, doms) {
		return false
	}
	return refineSide(o.Args[1], flipRel(rel), da, vidx, doms)
}

// propRounds bounds the fixpoint iteration; domains only ever shrink,
// so stopping early is sound (just less precise).
const propRounds = 8

// propagate refines doms to a (bounded) fixpoint of the conjunction.
// When fromParent is set, doms arrived as the parent condition's
// fixpoint extended with ⊤ for fresh variables: one pass over the new
// final conjunct suffices if it narrows nothing — the incremental
// push of push/pop solving. Returns false only on definite UNSAT.
func propagate(cons []Constraint, vidx map[string]int, doms []vdom, fromParent bool) bool {
	snap := make([]vdom, 0, len(doms))
	unchanged := func() bool {
		for i := range doms {
			if doms[i] != snap[i] {
				return false
			}
		}
		return true
	}
	if fromParent && len(cons) > 1 {
		snap = append(snap, doms...)
		if !refineConstraint(cons[len(cons)-1], vidx, doms) {
			return false
		}
		if unchanged() {
			return true
		}
	}
	for round := 0; round < propRounds; round++ {
		snap = append(snap[:0], doms...)
		for _, c := range cons {
			if !refineConstraint(c, vidx, doms) {
				return false
			}
		}
		if unchanged() {
			break
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Incremental candidate evaluation.
// ---------------------------------------------------------------------

// varMaskOf hashes an expression's variable footprint into 64 bits
// (index mod 64). Collisions only cause extra re-evaluations, never
// missed ones, because evalCtx.set hashes indices the same way.
func varMaskOf(e Expr, vidx map[string]int) uint64 {
	switch x := e.(type) {
	case Var:
		if i, ok := vidx[x.Name]; ok {
			return 1 << uint(i&63)
		}
		return 0
	case Op:
		var m uint64
		for _, a := range x.Args {
			m |= varMaskOf(a, vidx)
		}
		return m
	}
	return 0
}

// evalCtx is the incremental evaluator behind one solve: it holds the
// working assignment and per-conjunct satisfaction flags, and on each
// variable update re-evaluates only the conjuncts whose variable
// footprint intersects the change — testing a candidate does not
// re-walk the whole chain.
type evalCtx struct {
	vars []string
	cons []Constraint
	mask []uint64
	sat  []bool
	bad  int // falsified conjuncts under env
	env  Env
}

func newEvalCtx(vars []string, cons []Constraint, vidx map[string]int) *evalCtx {
	ec := &evalCtx{
		vars: vars,
		cons: cons,
		mask: make([]uint64, len(cons)),
		sat:  make([]bool, len(cons)),
		env:  make(Env, len(vars)),
	}
	for _, v := range vars {
		ec.env[v] = 0
	}
	for k, c := range cons {
		ec.mask[k] = varMaskOf(c.E, vidx)
		ec.sat[k] = c.Holds(ec.env)
		if !ec.sat[k] {
			ec.bad++
		}
	}
	return ec
}

func (ec *evalCtx) set(i int, w mem.Word) {
	name := ec.vars[i]
	if ec.env[name] == w {
		return
	}
	ec.env[name] = w
	bit := uint64(1) << uint(i&63)
	for k, m := range ec.mask {
		if m&bit == 0 {
			continue
		}
		now := ec.cons[k].Holds(ec.env)
		if now != ec.sat[k] {
			ec.sat[k] = now
			if now {
				ec.bad--
			} else {
				ec.bad++
			}
		}
	}
}

// ---------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------

// solveEntry is one memoized solve result. Entries are immutable after
// publication; env maps are shared (callers must not mutate models).
type solveEntry struct {
	node  *pcNode // the chain this entry answers (cache hits must match it)
	doms  []vdom  // variable domains at the propagation fixpoint
	env   Env     // model, when ok
	ok    bool    // a model was found
	unsat bool    // propagation or search refuted the conjunction (definite)
}

var emptyEntry = &solveEntry{env: Env{}, ok: true}

const (
	cacheShards  = 16
	cacheEntries = 1 << 13 // per solver, across shards
)

// modelCache memoizes solve results by path-condition fingerprint.
// Sharded mutexes keep exploration workers out of each other's way;
// FIFO eviction bounds memory. Solve results are a pure function of
// the query, so concurrent duplicate computation is harmless — both
// workers publish identical entries.
type modelCache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu   sync.Mutex
	m    map[uint64]*solveEntry
	fifo []uint64
	head int
}

func newModelCache() *modelCache {
	c := &modelCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*solveEntry)
	}
	return c
}

func (c *modelCache) get(fp uint64) (*solveEntry, bool) {
	sh := &c.shards[fp&(cacheShards-1)]
	sh.mu.Lock()
	e, ok := sh.m[fp]
	sh.mu.Unlock()
	return e, ok
}

func (c *modelCache) put(fp uint64, e *solveEntry) {
	sh := &c.shards[fp&(cacheShards-1)]
	sh.mu.Lock()
	if _, exists := sh.m[fp]; !exists {
		if len(sh.fifo)-sh.head >= cacheEntries/cacheShards {
			delete(sh.m, sh.fifo[sh.head])
			sh.head++
			if sh.head > cacheEntries/cacheShards {
				sh.fifo = append(sh.fifo[:0], sh.fifo[sh.head:]...)
				sh.head = 0
			}
		}
		sh.fifo = append(sh.fifo, fp)
	}
	sh.m[fp] = e
	sh.mu.Unlock()
}

// ---------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------

// solverCounters are the engine's per-analysis diagnostics. They are
// atomics because exploration workers share one solver; under parallel
// runs the split between cache hits and fresh solves depends on
// interleaving (results never do), so the counters are observability,
// not part of the deterministic result surface.
type solverCounters struct {
	queries        atomic.Uint64
	cacheHits      atomic.Uint64
	definiteUnsats atomic.Uint64
	propPruned     atomic.Uint64
	extendHits     atomic.Uint64
	probeIters     atomic.Uint64
	unknowns       atomic.Uint64
}

// SolverStats is a snapshot of the constraint engine's counters for
// one analysis: queries answered, answers served from the
// fingerprint-keyed cache, queries refuted (by propagation or by the
// search), queries whose domains propagation narrowed, models obtained
// by extending the parent condition's model, search nodes expanded
// beyond each query's root, and queries the search gave up on within
// its node budget (neither a model nor a refutation).
type SolverStats struct {
	Queries        uint64
	CacheHits      uint64
	DefiniteUnsats uint64
	PropPruned     uint64
	ExtendHits     uint64
	ProbeIters     uint64
	Unknowns       uint64
}

// Stats snapshots the solver's counters.
func (s *Solver) Stats() SolverStats {
	return SolverStats{
		Queries:        s.counters.queries.Load(),
		CacheHits:      s.counters.cacheHits.Load(),
		DefiniteUnsats: s.counters.definiteUnsats.Load(),
		PropPruned:     s.counters.propPruned.Load(),
		ExtendHits:     s.counters.extendHits.Load(),
		ProbeIters:     s.counters.probeIters.Load(),
		Unknowns:       s.counters.unknowns.Load(),
	}
}
