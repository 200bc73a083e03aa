// Package symx is a small symbolic-execution substrate: labeled
// bitvector expressions over 64-bit words, a structural simplifier, an
// incremental bitvector constraint engine, and a symbolic memory with
// angr-style address concretization.
//
// It stands in for the angr engine the paper's Pitchfork prototype is
// built on (§4.2). The properties Pitchfork actually relies on are (a)
// secrecy labels that propagate through computation, (b) path
// constraints from resolved branches, and (c) concretization of
// symbolic memory addresses ("angr concretizes addresses for memory
// operations instead of keeping them symbolic"). All three are
// reproduced here.
//
// The solver (solver.go, engine.go) exploits the structure the
// explorer gives it — path conditions grow by one conjunct per branch
// along a parent-pointer chain, and the same conditions recur across
// forks and workers:
//
//   - an interval × known-bits abstract domain with per-opcode
//     transfer functions propagates constraints to a fixpoint,
//     deciding pinned variables outright and proving many queries
//     UNSAT with no search at all (an empty domain is a proof);
//   - a deterministic split-and-propagate search over that domain
//     decides the rest: it tests candidates derived from the query,
//     splits a variable's domain when none fits, re-propagates each
//     half, and explores the halves breadth-first, within a constant
//     node budget;
//   - a per-conjunct incremental evaluator re-checks only the
//     conjuncts whose variables changed between candidate models;
//   - results are memoized in a sharded model cache shared across
//     forks and workers, served only to an identical chain, and child
//     queries start from the parent's cached fixpoint and model.
//
// The search has no seed, so the solver is a pure function of the
// query and parallel runs stay deterministic. It is complete up to its
// budget: a query that exhausts it is an explicit, counted unknown,
// and a symbolic report that pruned on one is marked truncated. What a
// real SMT
// backend would still add is completeness on dense nonlinear
// arithmetic over wide-range variables, where the budget runs out.
package symx

import (
	"fmt"
	"sort"
	"strings"

	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
)

// Expr is a labeled symbolic word. Implementations are immutable.
type Expr interface {
	// Label returns the secrecy label: the join over all leaves.
	Label() mem.Label
	// Concrete reports whether the expression denotes a single word,
	// and which.
	Concrete() (mem.Value, bool)
	// Eval evaluates under a total assignment of variables to words.
	Eval(env Env) mem.Value
	// Vars appends the free variable names to dst, deduplicated by the
	// caller if needed.
	vars(set map[string]bool)
	fmt.Stringer
}

// Env assigns words to variable names.
type Env map[string]mem.Word

// Const is a concrete labeled word.
type Const struct{ V mem.Value }

// C wraps a labeled value as an expression.
func C(v mem.Value) Const { return Const{V: v} }

// CW wraps a public word.
func CW(w mem.Word) Const { return Const{V: mem.Pub(w)} }

// Zero is the canonical public-zero expression. Hot paths that default
// to zero (unmapped memory reads, unset register resolves) return it
// instead of boxing a fresh Const into the interface per call.
var Zero Expr = Const{}

// Label implements Expr.
func (c Const) Label() mem.Label { return c.V.L }

// Concrete implements Expr.
func (c Const) Concrete() (mem.Value, bool) { return c.V, true }

// Eval implements Expr.
func (c Const) Eval(Env) mem.Value { return c.V }

func (c Const) vars(map[string]bool) {}

// String implements fmt.Stringer.
func (c Const) String() string { return c.V.String() }

// Var is a symbolic input: attacker-controlled public data (e.g. the
// Kocher cases' index x) or a secret (key bytes, plaintext).
type Var struct {
	Name string
	L    mem.Label
}

// V constructs a variable.
func NewVar(name string, l mem.Label) Var { return Var{Name: name, L: l} }

// Label implements Expr.
func (v Var) Label() mem.Label { return v.L }

// Concrete implements Expr.
func (v Var) Concrete() (mem.Value, bool) { return mem.Value{}, false }

// Eval implements Expr.
func (v Var) Eval(env Env) mem.Value { return mem.V(env[v.Name], v.L) }

func (v Var) vars(set map[string]bool) { set[v.Name] = true }

// String implements fmt.Stringer.
func (v Var) String() string {
	if v.L.IsSecret() {
		return v.Name + "!" + v.L.String()
	}
	return v.Name
}

// Op applies an ISA opcode to symbolic operands; the same evaluation
// function J·K as the concrete machine, lifted.
type Op struct {
	Code isa.Opcode
	Args []Expr
}

// Label implements Expr.
func (o Op) Label() mem.Label {
	l := mem.Public
	for _, a := range o.Args {
		l = l.Join(a.Label())
	}
	return l
}

// opArgBuf sizes the stack buffer Eval and Concrete use for operand
// values: opcodes are at most ternary, so evaluation of a node never
// allocates. (The solver's search evaluates whole constraint trees once per
// candidate model — this is the symbolic hot path.)
const opArgBuf = 4

// Concrete implements Expr.
func (o Op) Concrete() (mem.Value, bool) {
	var buf [opArgBuf]mem.Value
	vals := buf[:0]
	if len(o.Args) > opArgBuf {
		vals = make([]mem.Value, 0, len(o.Args))
	}
	for _, a := range o.Args {
		v, ok := a.Concrete()
		if !ok {
			return mem.Value{}, false
		}
		vals = append(vals, v)
	}
	v, err := isa.Eval(o.Code, vals)
	if err != nil {
		return mem.Value{}, false
	}
	return v, true
}

// Eval implements Expr.
func (o Op) Eval(env Env) mem.Value {
	var buf [opArgBuf]mem.Value
	vals := buf[:0]
	if len(o.Args) > opArgBuf {
		vals = make([]mem.Value, 0, len(o.Args))
	}
	for _, a := range o.Args {
		vals = append(vals, a.Eval(env))
	}
	v, err := isa.Eval(o.Code, vals)
	if err != nil {
		// Arity errors cannot occur on expressions built via Apply.
		return mem.Value{}
	}
	return v
}

func (o Op) vars(set map[string]bool) {
	for _, a := range o.Args {
		a.vars(set)
	}
}

// String implements fmt.Stringer.
func (o Op) String() string {
	parts := make([]string, len(o.Args))
	for i, a := range o.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", o.Code, strings.Join(parts, ", "))
}

// Vars returns the sorted free variables of e.
func Vars(e Expr) []string {
	set := make(map[string]bool)
	e.vars(set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Apply builds Op(code, args) and simplifies: constant folding plus a
// few algebraic identities that keep address expressions small.
func Apply(code isa.Opcode, args ...Expr) Expr {
	o := Op{Code: code, Args: args}
	if v, ok := o.Concrete(); ok {
		return Const{V: v}
	}
	switch code {
	case isa.OpAdd:
		// Fold concrete addends together; drop zeros.
		var sum mem.Word
		label := mem.Public
		rest := make([]Expr, 0, len(args))
		for _, a := range args {
			if v, ok := a.Concrete(); ok {
				sum += v.W
				label = label.Join(v.L)
				continue
			}
			rest = append(rest, a)
		}
		if len(rest) == 0 {
			return Const{V: mem.V(sum, label)}
		}
		if sum != 0 || label != mem.Public {
			rest = append(rest, Const{V: mem.V(sum, label)})
		}
		if len(rest) == 1 {
			return rest[0]
		}
		return Op{Code: isa.OpAdd, Args: rest}
	case isa.OpXor, isa.OpSub:
		if eq, ok := structurallyEqual(args[0], args[1]); ok && eq {
			// x ^ x = 0 and x - x = 0, but the label must still join
			// both sides (the *fact* that they cancel is data).
			return Const{V: mem.V(0, args[0].Label().Join(args[1].Label()))}
		}
	case isa.OpMul:
		if v, ok := args[0].Concrete(); ok && v.W == 1 && v.L.IsPublic() {
			return args[1]
		}
		if v, ok := args[1].Concrete(); ok && v.W == 1 && v.L.IsPublic() {
			return args[0]
		}
		if v, ok := args[0].Concrete(); ok && v.W == 0 {
			return Const{V: mem.V(0, v.L.Join(args[1].Label()))}
		}
		if v, ok := args[1].Concrete(); ok && v.W == 0 {
			return Const{V: mem.V(0, v.L.Join(args[0].Label()))}
		}
	case isa.OpMov:
		return args[0]
	}
	return o
}

// structurallyEqual reports syntactic equality (sound but incomplete).
func structurallyEqual(a, b Expr) (bool, bool) {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && x.V == y.V, true
	case Var:
		y, ok := b.(Var)
		return ok && x == y, true
	case Op:
		y, ok := b.(Op)
		if !ok || x.Code != y.Code || len(x.Args) != len(y.Args) {
			return false, true
		}
		for i := range x.Args {
			eq, _ := structurallyEqual(x.Args[i], y.Args[i])
			if !eq {
				return false, true
			}
		}
		return true, true
	}
	return false, false
}
