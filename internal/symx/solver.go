package symx

import (
	"slices"
	"sort"

	"pitchfork/internal/mem"
)

// Constraint asserts that an expression is truthy (nonzero) or falsy
// (zero).
type Constraint struct {
	E      Expr
	Truthy bool
}

// Holds evaluates the constraint under env.
func (c Constraint) Holds(env Env) bool {
	v := c.E.Eval(env)
	return (v.W != 0) == c.Truthy
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Truthy {
		return c.E.String() + " ≠ 0"
	}
	return c.E.String() + " = 0"
}

// PathCondition is a conjunction of constraints accumulated along an
// execution path. It is an immutable parent-pointer chain: With shares
// the whole prefix with the receiver, so extending the condition at a
// branch fork costs one node instead of a copy of the conjunction —
// symbolic exploration forks at every input-dependent branch, and the
// per-fork slice copies were the dominant constraint-bookkeeping cost.
// The zero value is the empty (trivially true) condition.
type PathCondition struct{ n *pcNode }

// pcNode is one conjunct; fp caches the Fingerprint fold of the chain
// up to and including this constraint, so fingerprints stay O(1) and
// equal to an oldest-first fold over the conjuncts. vars caches
// the sorted free-variable set of the whole chain, maintained
// incrementally by With and shared with the parent whenever the new
// conjunct introduces no fresh variables (the common case: a branch
// re-tests variables the chain already constrains).
type pcNode struct {
	parent *pcNode
	c      Constraint
	fp     uint64
	depth  int
	vars   []string
}

// PCond builds a path condition from constraints, oldest first.
func PCond(cs ...Constraint) PathCondition {
	var p PathCondition
	for _, c := range cs {
		p = p.With(c)
	}
	return p
}

// With returns the path condition extended by one constraint (the
// receiver is not mutated; prefixes stay shared across forks).
func (p PathCondition) With(c Constraint) PathCondition {
	h := mem.Mix64(p.Fingerprint() ^ Fingerprint(c.E))
	if c.Truthy {
		h = mem.Mix64(h ^ 1)
	} else {
		h = mem.Mix64(h ^ 2)
	}
	var pvars []string
	if p.n != nil {
		pvars = p.n.vars
	}
	return PathCondition{n: &pcNode{parent: p.n, c: c, fp: h, depth: p.Len() + 1, vars: unionVars(pvars, c.E)}}
}

// unionVars returns have ∪ vars(e), sorted — have itself when e adds
// nothing, so extending a condition usually allocates only its node.
func unionVars(have []string, e Expr) []string {
	fresh := missingVars(e, have, nil)
	if len(fresh) == 0 {
		return have
	}
	out := make([]string, 0, len(have)+len(fresh))
	out = append(out, have...)
	out = append(out, fresh...)
	sort.Strings(out)
	return out
}

// missingVars appends to dst the free variables of e that are absent
// from the sorted set have (allocating nothing when there are none).
func missingVars(e Expr, have []string, dst []string) []string {
	switch x := e.(type) {
	case Var:
		if !containsSorted(have, x.Name) {
			for _, s := range dst {
				if s == x.Name {
					return dst
				}
			}
			dst = append(dst, x.Name)
		}
	case Op:
		for _, a := range x.Args {
			dst = missingVars(a, have, dst)
		}
	}
	return dst
}

func containsSorted(have []string, s string) bool {
	i := sort.SearchStrings(have, s)
	return i < len(have) && have[i] == s
}

// Len reports the number of conjuncts.
func (p PathCondition) Len() int {
	if p.n == nil {
		return 0
	}
	return p.n.depth
}

// Holds evaluates the conjunction under env.
func (p PathCondition) Holds(env Env) bool {
	for n := p.n; n != nil; n = n.parent {
		if !n.c.Holds(env) {
			return false
		}
	}
	return true
}

// Fingerprint folds the conjunction to 64 bits, structurally and
// order-sensitively — one hash serving both the solver's cache keys
// and the symbolic exploration domain's configuration
// fingerprints, so the two can never drift apart. The fold is cached
// per node, making this O(1).
func (p PathCondition) Fingerprint() uint64 {
	if p.n == nil {
		return mem.HashSeed
	}
	return p.n.fp
}

// Vars returns the free variables of the conjunction, sorted. The
// slice is cached on the chain and shared with conditions extending
// this one — callers must not mutate it.
func (p PathCondition) Vars() []string {
	if p.n == nil {
		return nil
	}
	return p.n.vars
}

// parent returns the condition without its newest conjunct.
func (p PathCondition) parent() PathCondition {
	if p.n == nil {
		return PathCondition{}
	}
	return PathCondition{n: p.n.parent}
}

// conjuncts returns the chain oldest-first.
func (p PathCondition) conjuncts() []Constraint {
	out := make([]Constraint, p.Len())
	for n, i := p.n, len(out)-1; n != nil; n, i = n.parent, i-1 {
		out[i] = n.c
	}
	return out
}

// Solver decides path conditions. Every query runs one deterministic
// search over an interval × known-bits abstract domain (engine.go):
// propagation over the conjunction (seeded incrementally from the
// parent condition's fixpoint) narrows each variable's domain and
// settles many queries outright; then a split-and-propagate search
// tests a fixed candidate set at each node, splits one variable's
// domain when no candidate is a model, re-propagates each half, and
// explores the halves breadth-first. Each query ends in one of three ways: a model (which
// always satisfies the constraints), a refutation (every domain
// emptied — a proof of UNSAT), or "unknown" when the search hits its
// node budget. Unknowns are counted, so callers can report an analysis
// that pruned on one as inconclusive.
//
// Results are memoized in a bounded cache keyed by the path
// condition's fingerprint and verified by identity, and the search is
// a pure function of the query: answers are independent of call order
// and cache state, which is what lets one Solver be shared across the
// exploration engine's worker goroutines while keeping parallel
// symbolic runs bit-identical to serial ones. Returned models are
// shared with the cache — callers must not mutate them.
type Solver struct {
	cache    *modelCache
	counters solverCounters
}

// NewSolver returns a solver with an empty cache.
func NewSolver() *Solver {
	return &Solver{cache: newModelCache()}
}

// Fingerprint folds an expression tree to 64 bits, structurally and
// label-inclusive: structurally equal expressions hash equal. The
// solver's cache keys and the symbolic domain's configuration
// fingerprints (exploration dedup) both build on it.
func Fingerprint(e Expr) uint64 {
	switch x := e.(type) {
	case Const:
		h := mem.Mix64(mem.HashSeed ^ 1)
		h = mem.Mix64(h ^ x.V.W)
		return mem.Mix64(h ^ uint64(x.V.L))
	case Var:
		h := mem.Mix64(mem.HashSeed ^ 2)
		for i := 0; i < len(x.Name); i++ {
			h = mem.Mix64(h ^ uint64(x.Name[i]))
		}
		return mem.Mix64(h ^ uint64(x.L))
	case Op:
		h := mem.Mix64(mem.HashSeed ^ 3)
		h = mem.Mix64(h ^ uint64(x.Code))
		for _, a := range x.Args {
			h = mem.Mix64(h ^ Fingerprint(a))
		}
		return h
	}
	return mem.Mix64(mem.HashSeed ^ 4)
}

// Solve searches for a model of p. ok=false means no model was found:
// p is unsatisfiable, or the search ran out of budget (counted in
// SolverStats.Unknowns). The returned model is shared with the
// solver's cache; callers must not mutate it.
func (s *Solver) Solve(p PathCondition) (Env, bool) {
	e := s.query(p)
	return e.env, e.ok
}

// SolveWith searches for a model of p that additionally pins e to the
// word want — the primitive behind targeted address concretization.
func (s *Solver) SolveWith(p PathCondition, e Expr, want mem.Word) (Env, bool) {
	pinned := p.With(Constraint{E: Apply(eqOp(), e, C(mem.Pub(want))), Truthy: true})
	return s.Solve(pinned)
}

// Feasible reports whether a model of p was found within budget.
func (s *Solver) Feasible(p PathCondition) bool {
	return s.query(p).ok
}

// query answers a solve through the memo cache. A cached entry is used
// only for its own chain or one conjunct-by-conjunct equal to it, so a
// fingerprint collision can never serve another query's answer; on a
// miss the chain is solved recursively, parent first, so a result
// never depends on what happens to be cached.
func (s *Solver) query(p PathCondition) *solveEntry {
	s.counters.queries.Add(1)
	if p.n == nil {
		return emptyEntry
	}
	if e, ok := s.cache.get(p.n.fp); ok && sameChain(e.node, p.n) {
		s.counters.cacheHits.Add(1)
		return e
	}
	e := s.solveFresh(p)
	e.node = p.n
	s.cache.put(p.n.fp, e)
	return e
}

// sameChain reports whether two path-condition chains are equal
// conjunct by conjunct, down to a node they share (or the root).
func sameChain(a, b *pcNode) bool {
	for a != b {
		if a == nil || b == nil || a.fp != b.fp || a.depth != b.depth || a.c.Truthy != b.c.Truthy {
			return false
		}
		if eq, _ := structurallyEqual(a.c.E, b.c.E); !eq {
			return false
		}
		a, b = a.parent, b.parent
	}
	return true
}

// solveFresh decides a condition not in the cache.
func (s *Solver) solveFresh(p PathCondition) *solveEntry {
	vars := p.Vars()
	par := p.parent()
	var pe *solveEntry
	if par.n != nil {
		pe = s.query(par)
		if pe.unsat {
			// A superset of an unsatisfiable conjunction is unsatisfiable.
			s.counters.definiteUnsats.Add(1)
			return &solveEntry{unsat: true}
		}
	}
	vidx := make(map[string]int, len(vars))
	for i, v := range vars {
		vidx[v] = i
	}
	cons := p.conjuncts()

	// Propagation, seeded from the parent's fixpoint (⊤ for fresh
	// variables).
	doms := make([]vdom, len(vars))
	for i := range doms {
		doms[i] = fullDom
	}
	fromParent := false
	if pe != nil && pe.doms != nil {
		pvars := par.Vars()
		for i, j := 0, 0; i < len(pvars); i++ {
			for vars[j] != pvars[i] {
				j++
			}
			doms[j] = pe.doms[i]
		}
		fromParent = true
	}
	if !propagate(cons, vidx, doms, fromParent) {
		s.counters.definiteUnsats.Add(1)
		return &solveEntry{doms: doms, unsat: true}
	}
	for i := range doms {
		if !doms[i].isFull() {
			s.counters.propPruned.Add(1)
			break
		}
	}
	if len(vars) == 0 { // propagation evaluated every conjunct exactly
		return &solveEntry{doms: doms, env: Env{}, ok: true}
	}
	ec := newEvalCtx(vars, cons, vidx)

	// First candidate: the parent's model, extended by the domain
	// minimum of any variable the new conjunct introduces.
	if pe != nil && pe.ok {
		for i, v := range vars {
			w, ok := pe.env[v]
			if !ok {
				w = doms[i].lo
			}
			ec.set(i, w)
		}
		if ec.bad == 0 {
			s.counters.extendHits.Add(1)
			return &solveEntry{doms: doms, env: ec.env, ok: true}
		}
	}

	sr := search{ec: ec, cons: cons, vidx: vidx}
	res := sr.run(doms)
	s.counters.probeIters.Add(uint64(sr.nodes))
	switch res {
	case searchModel:
		return &solveEntry{doms: doms, env: ec.env, ok: true}
	case searchRefuted:
		s.counters.definiteUnsats.Add(1)
		return &solveEntry{doms: doms, unsat: true}
	}
	s.counters.unknowns.Add(1)
	return &solveEntry{doms: doms}
}

// searchBudget bounds the nodes one query's search expands beyond its
// root. It is a constant, not an option: answers are a pure function
// of the query.
const searchBudget = 4096

type searchResult int

const (
	searchModel   searchResult = iota // ec.env satisfies the conjunction
	searchRefuted                     // every branch's domains emptied: UNSAT
	searchUnknown                     // the node budget ran out
)

// search is one query's split-and-propagate search. The candidates at
// a node are the domains' low corner; then, one variable at a time with
// the others at their minimum, each word of words in its domain and its
// domain's second-least, second-greatest and greatest members; then
// the high corner. All are derived from the query, so the search needs
// no seed.
type search struct {
	ec    *evalCtx
	cons  []Constraint
	vidx  map[string]int
	words []mem.Word // conjunctWords(cons), built once the low corner fails
	nodes int
}

// run searches breadth-first from the box root, whose bounds
// propagation has reconciled (so each domain's lo and hi are members).
// Splits alternate by depth between halving a variable's interval and
// fixing its lowest unknown bit, and rotate over the variables every
// two levels.
func (sr *search) run(root []vdom) searchResult {
	type box struct {
		doms  []vdom
		depth int
	}
	queue := []box{{root, 0}}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		doms, n := b.doms, len(b.doms)
		if sr.try(doms) {
			return searchModel
		}
		split := -1
		for k := 0; k < n; k++ {
			if i := (b.depth/2 + k) % n; doms[i].lo != doms[i].hi {
				split = i
				break
			}
		}
		if split < 0 {
			continue // a single point, and try rejected it
		}
		d := doms[split]
		var halves [2]vdom
		if b.depth%2 == 0 {
			mid := d.lo + (d.hi-d.lo)/2
			halves = [2]vdom{d.meetInterval(d.lo, mid), d.meetInterval(mid+1, d.hi)}
		} else {
			bit := ^d.known & -^d.known // lowest unknown bit
			halves = [2]vdom{d.meetBits(bit, 0), d.meetBits(bit, bit)}
		}
		for _, h := range halves {
			if sr.nodes == searchBudget {
				return searchUnknown
			}
			sr.nodes++
			child := append([]vdom(nil), doms...)
			child[split] = h
			if !h.empty() && propagate(sr.cons, sr.vidx, child, false) {
				queue = append(queue, box{child, b.depth + 1})
			}
		}
	}
	return searchRefuted
}

// try tests the node's candidates, leaving a model in sr.ec.env.
func (sr *search) try(doms []vdom) bool {
	ec := sr.ec
	for i := range doms {
		ec.set(i, doms[i].lo)
	}
	if ec.bad == 0 {
		return true
	}
	if sr.words == nil {
		sr.words = conjunctWords(sr.cons)
	}
	for i, d := range doms {
		for _, w := range sr.words {
			if d.contains(w) {
				if ec.set(i, w); ec.bad == 0 {
					return true
				}
			}
		}
		if d.lo != d.hi {
			next, _ := leastAtLeast(d.lo+1, d.known, d.bit)
			prev, _ := greatestAtMost(d.hi-1, d.known, d.bit)
			for _, w := range [3]mem.Word{next, prev, d.hi} {
				if ec.set(i, w); ec.bad == 0 {
					return true
				}
			}
		}
		ec.set(i, d.lo)
	}
	for i := range doms {
		ec.set(i, doms[i].hi)
	}
	return ec.bad == 0
}

// conjunctWords collects the constants of the conjuncts and their
// neighbours ±1, ascending and deduplicated.
func conjunctWords(cons []Constraint) []mem.Word {
	var out []mem.Word
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Const:
			out = append(out, x.V.W-1, x.V.W, x.V.W+1)
		case Op:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	for _, c := range cons {
		walk(c.E)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
