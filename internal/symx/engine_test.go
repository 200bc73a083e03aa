package symx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Deterministic random path conditions for the property suite.

func genExpr(rng *rand.Rand, vars []Var, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		return CW(mem.Word(rng.Intn(300)))
	}
	ops := []isa.Opcode{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar,
		isa.OpNot, isa.OpNeg,
		isa.OpEq, isa.OpNe, isa.OpLt, isa.OpLe, isa.OpGt, isa.OpGe,
		isa.OpSlt, isa.OpSge, isa.OpSelect, isa.OpSucc, isa.OpPred,
	}
	op := ops[rng.Intn(len(ops))]
	n := op.Arity()
	if n < 0 {
		n = 1 + rng.Intn(3)
	}
	args := make([]Expr, n)
	for i := range args {
		args[i] = genExpr(rng, vars, depth-1)
	}
	return Apply(op, args...)
}

func genCond(rng *rand.Rand, vars []Var) PathCondition {
	var p PathCondition
	for n := 1 + rng.Intn(4); n > 0; n-- {
		p = p.With(Constraint{E: genExpr(rng, vars, 1+rng.Intn(3)), Truthy: rng.Intn(2) == 0})
	}
	return p
}

// gridWords is the per-variable word grid the reference search below
// enumerates: small values, powers of two and their neighbours, and
// the top of the word range.
var gridWords = []mem.Word{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 63, 64, 100, 127, 128, 200, 255, 256, 1 << 12, 1 << 16, ^mem.Word(0), ^mem.Word(0) - 1, 1 << 63}

// bruteGridModel searches the word grid exhaustively with plain Holds
// evaluation — an independent reference the solver must match: every
// grid-satisfiable condition must be solved.
func bruteGridModel(p PathCondition) (Env, bool) {
	vars := p.Vars()
	env := make(Env, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return p.Holds(env)
		}
		for _, w := range gridWords {
			env[vars[i]] = w
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return env, true
	}
	return nil, false
}

// Property: any model the engine returns satisfies the condition.
func TestEngineModelsSatisfy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public), NewVar("z", mem.Secret)}
	s := NewSolver()
	for i := 0; i < 400; i++ {
		p := genCond(rng, vars[:1+rng.Intn(3)])
		if env, ok := s.Solve(p); ok && !p.Holds(env) {
			t.Fatalf("case %d: returned model %v does not satisfy %v", i, env, p.conjuncts())
		}
	}
}

// Property: interval/known-bits propagation never excludes a real
// model — in particular it never declares UNSAT on a condition the
// reference grid can satisfy, and the engine still finds a model there
// (the domains are filters, not oracles).
func TestEnginePropagationRetainsModels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public)}
	s := NewSolver()
	for i := 0; i < 250; i++ {
		p := genCond(rng, vars[:1+rng.Intn(2)])
		m, satisfiable := bruteGridModel(p)
		pv := p.Vars()
		vidx := make(map[string]int, len(pv))
		for j, v := range pv {
			vidx[v] = j
		}
		doms := make([]vdom, len(pv))
		for j := range doms {
			doms[j] = fullDom
		}
		live := propagate(p.conjuncts(), vidx, doms, false)
		if !satisfiable {
			continue
		}
		if !live {
			t.Fatalf("case %d: propagation declared UNSAT but %v satisfies %v", i, m, p.conjuncts())
		}
		for j, v := range pv {
			if !doms[j].contains(m[v]) {
				t.Fatalf("case %d: domain %+v of %s excludes model value %d", i, doms[j], v, m[v])
			}
		}
		if _, ok := s.Solve(p); !ok {
			t.Fatalf("case %d: grid-satisfiable condition reported unsolved", i)
		}
	}
}

// Property: solving a chain child-by-child (warm parent entries at
// every step) agrees exactly with solving the full chain from scratch
// in a fresh solver.
func TestEngineIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public), NewVar("z", mem.Secret)}
	for i := 0; i < 150; i++ {
		p := genCond(rng, vars[:1+rng.Intn(3)])
		warm := NewSolver()
		var chain []PathCondition
		for n := p.n; n != nil; n = n.parent {
			chain = append(chain, PathCondition{n: n})
		}
		for j := len(chain) - 1; j >= 0; j-- { // oldest prefix first
			warm.Solve(chain[j])
		}
		wEnv, wOK := warm.Solve(p)
		cold := NewSolver()
		cEnv, cOK := cold.Solve(p)
		if wOK != cOK || fmt.Sprint(wEnv) != fmt.Sprint(cEnv) {
			t.Fatalf("case %d: incremental (%v,%v) != from-scratch (%v,%v) for %v",
				i, wEnv, wOK, cEnv, cOK, p.conjuncts())
		}
	}
}

// Property: answers are a pure function of the query — identical
// across repeated calls, interleaved unrelated queries, and solver
// instances with different cache states.
func TestEngineDeterministicAcrossCacheStates(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public)}
	conds := make([]PathCondition, 40)
	for i := range conds {
		conds[i] = genCond(rng, vars[:1+rng.Intn(2)])
	}
	a, b := NewSolver(), NewSolver()
	type res struct {
		env string
		ok  bool
	}
	got := make([]res, len(conds))
	for i, p := range conds { // forward, cold cache
		env, ok := a.Solve(p)
		got[i] = res{fmt.Sprint(env), ok}
	}
	for i := len(conds) - 1; i >= 0; i-- { // reverse on another solver
		env, ok := b.Solve(conds[i])
		if r := (res{fmt.Sprint(env), ok}); r != got[i] {
			t.Fatalf("cond %d: call order changed the answer: %v vs %v", i, r, got[i])
		}
	}
	for i, p := range conds { // repeat = cache hits, same answers
		env, ok := a.Solve(p)
		if r := (res{fmt.Sprint(env), ok}); r != got[i] {
			t.Fatalf("cond %d: cache state changed the answer: %v vs %v", i, r, got[i])
		}
	}
}

// Fuzz the abstract domain directly: for random expressions and
// random variable domains containing a chosen assignment, the
// abstract evaluation must contain the concrete result.
func TestEngineDomainSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	vars := []Var{NewVar("x", mem.Public), NewVar("y", mem.Public)}
	vidx := map[string]int{"x": 0, "y": 1}
	for i := 0; i < 2000; i++ {
		env := Env{}
		doms := make([]vdom, len(vars))
		for j, v := range vars {
			w := mem.Word(rng.Uint64() >> uint(rng.Intn(64)))
			env[v.Name] = w
			d := fullDom
			switch rng.Intn(3) {
			case 0: // interval around w
				lo := w - mem.Word(rng.Intn(100))
				hi := w + mem.Word(rng.Intn(100))
				if lo <= w && w <= hi {
					d = ivl(lo, hi)
				}
			case 1: // some of w's bits known
				mask := mem.Word(rng.Uint64())
				d = vdom{lo: 0, hi: ^mem.Word(0), known: mask, bit: w & mask}.norm()
			}
			doms[j] = d
		}
		e := genExpr(rng, vars, 3)
		got := aeval(e, vidx, doms)
		if w := e.Eval(env).W; !got.contains(w) {
			t.Fatalf("case %d: aeval %+v excludes concrete value %d of %v under %v", i, got, w, e, env)
		}
	}
}

// Definite-UNSAT answers must be real proofs on the shapes the
// exploration emits: contradictory equalities, out-of-range pins, and
// bit-mask conflicts.
func TestEngineDefiniteUnsat(t *testing.T) {
	x := NewVar("x", mem.Public)
	s := NewSolver()
	cases := []PathCondition{
		PCond(
			Constraint{E: Apply(isa.OpEq, x, CW(7)), Truthy: true},
			Constraint{E: Apply(isa.OpEq, x, CW(8)), Truthy: true},
		),
		PCond(
			Constraint{E: Apply(isa.OpLt, x, CW(4)), Truthy: true},
			Constraint{E: Apply(isa.OpEq, Apply(isa.OpAdd, x, CW(0x40)), CW(0x48)), Truthy: true},
		),
		PCond(
			Constraint{E: Apply(isa.OpAnd, x, CW(1)), Truthy: false},
			Constraint{E: Apply(isa.OpAnd, x, CW(1)), Truthy: true},
		),
		PCond(
			Constraint{E: Apply(isa.OpGe, x, CW(16)), Truthy: true},
			Constraint{E: Apply(isa.OpLt, x, CW(16)), Truthy: true},
		),
	}
	for i, p := range cases {
		e := s.query(p)
		if !e.unsat {
			t.Errorf("case %d: expected a propagation UNSAT proof", i)
		}
		if e.ok || s.Feasible(p) {
			t.Errorf("case %d: unsatisfiable condition reported feasible", i)
		}
	}
	if s.Stats().DefiniteUnsats == 0 {
		t.Error("definite-UNSAT counter did not move")
	}
}

// The pinned-equality fast path: a SolveWith against a reachable
// target must solve through propagation's singleton domain without
// touching the probe loop.
func TestEnginePinnedEqualitySkipsProbing(t *testing.T) {
	x := NewVar("x", mem.Public)
	s := NewSolver()
	addr := Apply(isa.OpAdd, CW(0x40), x)
	env, ok := s.SolveWith(PathCondition{}, addr, 0x49)
	if !ok || env["x"] != 9 {
		t.Fatalf("SolveWith = %v, %v; want x=9", env, ok)
	}
	if st := s.Stats(); st.ProbeIters != 0 {
		t.Fatalf("pinned equality burned %d probe iterations; want 0", st.ProbeIters)
	}
}

// Vars is O(1) on the chain: the sorted set is cached per node.
func TestPathConditionVarsAllocFree(t *testing.T) {
	x, y := NewVar("x", mem.Public), NewVar("y", mem.Public)
	p := PCond(
		Constraint{E: Apply(isa.OpLt, y, CW(100)), Truthy: true},
		Constraint{E: Apply(isa.OpGt, x, CW(2)), Truthy: true},
		Constraint{E: Apply(isa.OpEq, x, y), Truthy: false},
	)
	if got := p.Vars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Vars = %v, want [x y]", got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if len(p.Vars()) != 2 {
			t.Fatal("vars lost")
		}
	})
	if allocs != 0 {
		t.Fatalf("Vars allocates %.1f per call; want 0 (chain cache regression)", allocs)
	}
}

// Unmapped memory reads return the canonical zero expression without
// boxing a fresh interface value per call.
func TestMemoryReadUnmappedAllocFree(t *testing.T) {
	m := NewMemory()
	allocs := testing.AllocsPerRun(200, func() {
		if e := m.Read(0x1234); e != Zero {
			t.Fatal("unmapped read must be the canonical zero")
		}
	})
	if allocs != 0 {
		t.Fatalf("unmapped Read allocates %.1f per call; want 0", allocs)
	}
}

// The memo cache serves repeated queries and verified models.
func TestEngineCacheHits(t *testing.T) {
	x := NewVar("x", mem.Public)
	s := NewSolver()
	p := PCond(Constraint{E: Apply(isa.OpGt, x, CW(4)), Truthy: true})
	e1, ok1 := s.Solve(p)
	e2, ok2 := s.Solve(p)
	if !ok1 || !ok2 || fmt.Sprint(e1) != fmt.Sprint(e2) {
		t.Fatalf("repeat solve drifted: (%v,%v) vs (%v,%v)", e1, ok1, e2, ok2)
	}
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hit on repeated query: %+v", st)
	}
	if st.Queries < 2 {
		t.Fatalf("query counter did not move: %+v", st)
	}
}

// Branch conditions from the litmus corpus's symbolic checks that
// propagation alone cannot decide (the offset sits under a nested add,
// a multiply, or a comparison wrapped in ne): the search must refute
// 18 and solve the satisfiable v11_04 arm with its only model.
func TestEngineLitmusRegressions(t *testing.T) {
	x := NewVar("x", mem.Public)
	add := func(a Expr, k mem.Word) Expr { return Op{Code: isa.OpAdd, Args: []Expr{a, CW(k)}} }
	ne0 := func(e Expr) Expr { return Apply(isa.OpNe, e, CW(0)) }
	lt4 := func(e Expr) Expr { return ne0(Apply(isa.OpLt, e, CW(4))) }
	eq := func(e Expr, k mem.Word) Constraint { return Constraint{E: Apply(isa.OpEq, e, CW(k)), Truthy: true} }
	holds := func(e Expr) Constraint { return Constraint{E: e, Truthy: true} }
	fails := func(e Expr) Constraint { return Constraint{E: e, Truthy: false} }

	unsat := []PathCondition{
		PCond(fails(lt4(x)), holds(lt4(x))),
		PCond(fails(ne0(Apply(isa.OpGt, x, CW(0)))), fails(lt4(x))),
	}
	want := []string{
		"ne(lt(x, 4pub), 0pub) = 0 ∧ ne(lt(x, 4pub), 0pub) ≠ 0",
		"ne(gt(x, 0pub), 0pub) = 0 ∧ ne(lt(x, 4pub), 0pub) = 0",
	}
	for k := mem.Word(4101); k <= 4108; k++ {
		unsat = append(unsat,
			PCond(holds(lt4(add(x, 1))), eq(add(add(x, 1), 4097), k)),
			PCond(holds(lt4(Apply(isa.OpMul, x, CW(2)))), eq(add(Apply(isa.OpMul, x, CW(2)), 4097), k)))
		want = append(want,
			fmt.Sprintf("ne(lt(add(x, 1pub), 4pub), 0pub) ≠ 0 ∧ eq(add(add(x, 1pub), 4097pub), %dpub) ≠ 0", k),
			fmt.Sprintf("ne(lt(mul(x, 2pub), 4pub), 0pub) ≠ 0 ∧ eq(add(mul(x, 2pub), 4097pub), %dpub) ≠ 0", k))
	}
	for i, p := range unsat {
		var parts []string
		for _, c := range p.conjuncts() {
			parts = append(parts, c.String())
		}
		if got := strings.Join(parts, " ∧ "); got != want[i] {
			t.Fatalf("case %d renders as %s; want %s", i, got, want[i])
		}
		s := NewSolver()
		if e := s.query(p); !e.unsat || e.ok {
			t.Errorf("case %d: %v not refuted (ok=%v)", i, p.conjuncts(), e.ok)
		}
		if st := s.Stats(); st.Unknowns != 0 {
			t.Errorf("case %d: %d unknowns", i, st.Unknowns)
		}
	}

	s := NewSolver()
	p := PCond(eq(add(Apply(isa.OpSub, x, CW(5)), 4105), 36861))
	if got := p.conjuncts()[0].String(); got != "eq(add(sub(x, 5pub), 4105pub), 36861pub) ≠ 0" {
		t.Fatalf("condition renders as %s", got)
	}
	env, ok := s.Solve(p)
	if !ok || env["x"] != 32761 {
		t.Fatalf("Solve = %v, %v; want x=32761", env, ok)
	}
	if st := s.Stats(); st.Unknowns != 0 {
		t.Fatalf("%d unknowns", st.Unknowns)
	}
}

// A nonlinear condition past the search budget is neither a model nor
// a refutation: it counts exactly one unknown, also when asked again.
func TestEngineBudgetExhaustionIsUnknown(t *testing.T) {
	x := NewVar("x", mem.Public)
	r := mem.Word(1<<20 + 7)
	p := PCond(Constraint{E: Apply(isa.OpEq, Apply(isa.OpMul, x, x), CW(r*r)), Truthy: true})
	s := NewSolver()
	for i := 0; i < 2; i++ {
		if s.Feasible(p) {
			t.Fatal("the search was expected to exhaust its budget")
		}
	}
	if e := s.query(p); e.unsat {
		t.Fatal("budget exhaustion reported as a refutation")
	}
	if st := s.Stats(); st.Unknowns != 1 || st.ProbeIters != searchBudget {
		t.Fatalf("stats %+v; want 1 unknown after %d nodes", st, searchBudget)
	}
}

// A cache entry is served only for its own chain: an entry stored
// under another condition's fingerprint (a collision) is ignored, and
// the query is solved fresh.
func TestEngineCacheVerifiesIdentity(t *testing.T) {
	x := NewVar("x", mem.Public)
	p1 := PCond(
		Constraint{E: Apply(isa.OpEq, x, CW(7)), Truthy: true},
		Constraint{E: Apply(isa.OpEq, x, CW(8)), Truthy: true},
	)
	p2 := PCond(Constraint{E: Apply(isa.OpEq, x, CW(3)), Truthy: true})
	s := NewSolver()
	e1 := s.query(p1)
	if !e1.unsat {
		t.Fatal("p1 must be refuted")
	}
	s.cache.put(p2.n.fp, e1)
	hits := s.Stats().CacheHits
	env, ok := s.Solve(p2)
	if !ok || env["x"] != 3 {
		t.Fatalf("Solve(p2) = %v, %v; the colliding entry for p1 was served", env, ok)
	}
	if s.Stats().CacheHits != hits {
		t.Fatal("the colliding entry counted as a cache hit")
	}
	// A structurally equal chain built separately is a genuine hit.
	p3 := PCond(Constraint{E: Apply(isa.OpEq, x, CW(3)), Truthy: true})
	if env, ok := s.Solve(p3); !ok || env["x"] != 3 || s.Stats().CacheHits != hits+1 {
		t.Fatalf("equal chain not served from the cache: %v, %v, %+v", env, ok, s.Stats())
	}
}
