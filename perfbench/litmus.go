package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"pitchfork/internal/core"
	"pitchfork/internal/ct"
	"pitchfork/internal/isa"
	"pitchfork/internal/mem"
	"pitchfork/internal/pitchfork"
	"pitchfork/internal/repair"
	"pitchfork/internal/symx"
	"pitchfork/internal/taint"
	"pitchfork/internal/testcases"
	"pitchfork/spectre"
)

// litmusProgram is one litmus program compiled for the three checks.
// The concrete runs (procedure and repair) ignore a program's symbolic
// bindings, so one compiled program, with x bound symbolic, serves all
// three: its procedure and repair reports are byte-identical to those
// of a copy without the binding.
type litmusProgram struct {
	name string
	want expectedProgram
	prog *spectre.Program
	isa  *isa.Program // the same code, for the traced replay
	x    isa.Addr     // address of the attacker index x
}

type litmusSetup struct {
	progs         []litmusProgram
	hyb, sym, rep *spectre.Analyzer
}

func litmusCorpus() []testcases.Case {
	var cs []testcases.Case
	cs = append(cs, testcases.Kocher()...)
	cs = append(cs, testcases.SpecOnlyV1()...)
	return append(cs, testcases.V11()...)
}

// litmusCounts are the exact-repeat counters of one pass.
type litmusCounts struct {
	sched                  seqCounts
	symStates              int64
	solver                 symx.SolverStats
	iterations, fences     int64
	repaired, unrepairable int64
	inconclusive, repairs  int64
	certified              int64
}

func (c *litmusCounts) addSolver(s *spectre.SolverStats) {
	if s == nil {
		return
	}
	c.solver.Queries += s.Queries
	c.solver.CacheHits += s.CacheHits
	c.solver.DefiniteUnsats += s.DefiniteUnsats
	c.solver.PropPruned += s.PropPruned
	c.solver.ExtendHits += s.ExtendHits
	c.solver.ProbeIters += s.ProbeIters
}

func (c *litmusCounts) addRepairOutcome(v string) {
	c.repairs++
	switch v {
	case vRepaired:
		c.repaired++
	case vUndecided:
		c.inconclusive++
	case vClean:
	default:
		c.unrepairable++
	}
	if v == vClean || v == vRepaired {
		c.certified++
	}
}

// runLitmus checks each of the 25 CTL litmus programs three ways
// through the spectre façade: the hybrid two-phase procedure (static
// pass, stop at first), a symbolic run at the default configuration
// with x unconstrained, and an auto-portfolio repair. A pass checks
// every program once, in an order drawn from the seed; compiling the
// corpus is set-up. Each draw starts from a collected heap, as Table 2
// cells do.
func runLitmus(cfg *config) (*result, error) {
	res := &result{opName: "litmus concrete verdict", extra: map[string][]float64{}}
	st, err := timeSetup(res, func() (*litmusSetup, error) {
		st := &litmusSetup{}
		var err error
		if st.hyb, err = spectre.New(spectre.WithStaticPass(true), spectre.WithStopAtFirst(true)); err != nil {
			return nil, err
		}
		if st.sym, err = spectre.New(spectre.WithSymbolic(true), spectre.WithStopAtFirst(true)); err != nil {
			return nil, err
		}
		if st.rep, err = spectre.New(); err != nil {
			return nil, err
		}
		for _, c := range litmusCorpus() {
			lp := litmusProgram{name: c.Name}
			if lp.want, err = cfg.exp.program(c.Name); err != nil {
				return nil, err
			}
			if lp.prog, err = spectre.CompileCTL(c.Source(), spectre.ModeC); err != nil {
				return nil, err
			}
			if !lp.prog.SymbolicGlobal("x", "x") {
				return nil, fmt.Errorf("%s: no global x", c.Name)
			}
			st.progs = append(st.progs, lp)
		}
		return st, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// The traced replay calls the layers below the façade, which
		// take the compiler's program; only the traced run needs it.
		cases := litmusCorpus()
		for i := range st.progs {
			comp, err := ct.Compile(cases[i].Source(), ct.ModeC)
			if err != nil {
				return nil, err
			}
			st.progs[i].isa, st.progs[i].x = comp.Prog, comp.GlobalAddr["x"]
		}
	}
	// Pass i checks the programs in an order drawn from (seed, i), the
	// same for the untraced and the traced pass i.
	order := func(i int) []int {
		return rand.New(rand.NewPCG(cfg.seed, 0x11750+uint64(i))).Perm(len(st.progs))
	}

	ctx := context.Background()
	var first *litmusCounts
	symLat, repLat := []float64{}, []float64{}
	rec := newRecorder()
	var layers []map[string]float64
	untraced := func(pass int) (time.Duration, error) {
		md := startMem(res)
		var lc litmusCounts
		t0 := time.Now()
		for _, i := range order(pass) {
			p := &st.progs[i]
			runtime.GC() // charge no draw for the previous draw's garbage
			t0 := time.Now()
			pr, err := st.hyb.RunProcedure(ctx, p.prog)
			res.lat = append(res.lat, ms(time.Since(t0)))
			res.checks.add(classify(procedureVerdict(pr), p.want.Procedure, err), p.name+"/procedure")
			if pr != nil {
				for _, r := range []*spectre.Report{pr.Phase1, pr.Phase2} {
					if r != nil {
						lc.sched.add(pitchfork.Report{States: r.States, Paths: r.Paths, DedupHits: r.DedupHits, Truncated: r.Truncated})
					}
				}
			}

			t0 = time.Now()
			sr, err := st.sym.Run(ctx, p.prog)
			symLat = append(symLat, ms(time.Since(t0)))
			v := vUndecided
			if sr != nil {
				v = reportVerdict(sr)
				lc.symStates += int64(sr.States)
				lc.addSolver(sr.Solver)
			}
			res.checks.add(classify(v, p.want.Symbolic, err), p.name+"/symbolic")

			t0 = time.Now()
			rr, err := st.rep.Repair(ctx, p.prog)
			repLat = append(repLat, ms(time.Since(t0)))
			v, err = repairVerdict(rr, err)
			res.checks.add(classify(v, p.want.Repair, err), p.name+"/repair")
			if rr != nil {
				lc.iterations += int64(rr.Cost.Iterations)
				lc.fences += int64(rr.Cost.Fences)
			}
		}
		w := time.Since(t0)
		md.record(res)
		if first == nil {
			first = &lc
		} else if lc != *first {
			res.notes = append(res.notes, fmt.Sprintf("exact-repeat drift between passes: %+v vs %+v", lc, *first))
		}
		return w, nil
	}
	traced := func(pass int) (time.Duration, error) {
		m := rec.mark()
		var lc litmusCounts
		t0 := time.Now()
		for op, i := range order(pass) {
			rec.setOp(op)
			p := &st.progs[i]
			runtime.GC()
			v, err := replayProcedure(rec, p.isa, p.x, &lc)
			res.checks.add(classify(v, p.want.Procedure, err), p.name+"/procedure (traced)")
			v, err = replaySymbolic(rec, p.isa, p.x, &lc)
			res.checks.add(classify(v, p.want.Symbolic, err), p.name+"/symbolic (traced)")
			v, err = replayRepair(rec, p.isa, &lc)
			res.checks.add(classify(v, p.want.Repair, err), p.name+"/repair (traced)")
		}
		w := time.Since(t0)
		// The replay makes the façade's calls; its counters must match,
		// or the per-layer figures no longer describe the program.
		if lc.sched != first.sched || lc.symStates != first.symStates || lc.solver != first.solver ||
			lc.iterations != first.iterations || lc.fences != first.fences {
			res.checks.add(outWrong, "traced replay diverges from the façade")
			res.notes = append(res.notes, fmt.Sprintf("traced replay counters differ from the façade's: %+v vs %+v", lc, *first))
		}
		lt := summarize(rec.since(m))
		l := schedLayers(lt, &lc.sched, lt.total["sched.phase1"]+lt.total["sched.phase2"])
		l["taint.static_ms"] = ms(lt.total["taint.static"])
		l["taint.certified"] = float64(len(lt.calls["taint.static"])) - float64(len(lt.calls["sched.phase1"])+len(lt.calls["sched.phase2"]))
		l["symx.symbolic_ms"] = ms(lt.total["symx.symbolic"])
		l["symx.queries"] = float64(lc.solver.Queries)
		l["symx.cache_hits"] = float64(lc.solver.CacheHits)
		l["symx.definite_unsats"] = float64(lc.solver.DefiniteUnsats)
		l["symx.prop_pruned"] = float64(lc.solver.PropPruned)
		l["symx.extend_hits"] = float64(lc.solver.ExtendHits)
		l["symx.probe_iters"] = float64(lc.solver.ProbeIters)
		l["symx.cache_hit_ratio"] = ratio(float64(lc.solver.CacheHits), float64(lc.solver.Queries))
		repairLayers(l, lt, &lc)
		layers = append(layers, l)
		return w, nil
	}
	if err := runPasses(cfg, res, untraced, traced); err != nil {
		return nil, err
	}
	res.extra["symbolic_p50_ms"] = symLat
	res.extra["repair_p50_ms"] = repLat
	res.repeat = map[string]int64{
		"sched.states": first.sched.states, "sched.paths": first.sched.paths, "sched.dedup_hits": first.sched.dedup,
		"symx.states": first.symStates, "symx.queries": int64(first.solver.Queries),
		"symx.cache_hits": int64(first.solver.CacheHits), "symx.definite_unsats": int64(first.solver.DefiniteUnsats),
		"symx.prop_pruned": int64(first.solver.PropPruned), "symx.extend_hits": int64(first.solver.ExtendHits),
		"symx.probe_iters":  int64(first.solver.ProbeIters),
		"repair.iterations": first.iterations, "repair.fences": first.fences,
	}
	if !cfg.trace {
		return res, nil
	}

	res.layers = medianLayers(layers)
	return res, writeTrace(cfg, "litmus", rec)
}

func repairLayers(l map[string]float64, lt layerTimes, lc *litmusCounts) {
	l["repair.repair_ms"] = ms(lt.total["repair.repair"])
	l["repair.iterations"] = float64(lc.iterations)
	l["repair.fences"] = float64(lc.fences)
	l["repair.repaired"] = float64(lc.repaired)
	l["repair.unrepairable"] = float64(lc.unrepairable)
	l["repair.inconclusive"] = float64(lc.inconclusive)
	l["repair.certified_ratio"] = ratio(float64(lc.certified), float64(lc.repairs))
}

// staticPass replays the façade's static pre-analysis on a CTL
// program whose only binding beyond the data image is the public
// symbolic x.
func staticPass(rec *recorder, prog *isa.Program, x isa.Addr) (*taint.Report, error) {
	defer rec.start("taint.static")()
	return taint.Analyze(taint.Config{Prog: prog, Regs: map[isa.Reg]mem.Label{}, Mem: map[isa.Addr]mem.Label{x: mem.Public}})
}

// replayProcedure is RunProcedure with WithStaticPass and
// WithStopAtFirst, one layer call at a time: per phase, the static
// pass, then (unless it certified the program) the explorer with the
// static verdicts as pruning hints.
func replayProcedure(rec *recorder, prog *isa.Program, x isa.Addr, lc *litmusCounts) (string, error) {
	phase := func(name string, bound int, fwd bool) (string, error) {
		st, err := staticPass(rec, prog, x)
		if err != nil {
			return "", err
		}
		if st.Safe() {
			return vClean, nil
		}
		end := rec.start(name)
		r, err := pitchfork.Analyze(core.New(prog), pitchfork.Options{
			Bound: bound, ForwardHazards: fwd, StopAtFirst: true, Workers: 1, Prune: st,
		})
		end()
		if err != nil {
			return "", err
		}
		lc.sched.add(r)
		return internalVerdict(r), nil
	}
	p1, err := phase("sched.phase1", pitchfork.BoundNoHazards, false)
	if err != nil {
		return "", err
	}
	var err2 error
	v := phasesVerdict(p1, func() string {
		var p2 string
		p2, err2 = phase("sched.phase2", pitchfork.BoundWithHazards, true)
		return p2
	})
	return v, err2
}

// replaySymbolic is the symbolic check: the default configuration plus
// stop-at-first, with x bound to an unconstrained public variable.
func replaySymbolic(rec *recorder, prog *isa.Program, x isa.Addr, lc *litmusCounts) (string, error) {
	sm := pitchfork.NewSym(prog).SetMem(x, symx.NewVar("x", mem.Public))
	end := rec.start("symx.symbolic")
	r, err := pitchfork.AnalyzeSymbolic(sm, pitchfork.Options{
		Bound: spectre.DefaultBound, ForwardHazards: true, StopAtFirst: true, Workers: 1,
	})
	end()
	if err != nil {
		return "", err
	}
	lc.symStates += int64(r.States)
	if r.Solver != nil {
		lc.addSolver(&spectre.SolverStats{
			Queries: r.Solver.Queries, CacheHits: r.Solver.CacheHits, DefiniteUnsats: r.Solver.DefiniteUnsats,
			PropPruned: r.Solver.PropPruned, ExtendHits: r.Solver.ExtendHits, ProbeIters: r.Solver.ProbeIters,
		})
	}
	return internalVerdict(r), nil
}

// replayRepair is the façade's default-configuration Repair through the
// repair engine, with each re-verification a sched.explore span nested
// in the repair span. Re-verification time counts as sched time; its
// states are not counted in sched.states, which stays the procedure's
// count on this workload.
func replayRepair(rec *recorder, prog *isa.Program, lc *litmusCounts) (string, error) {
	verify := func(ip *isa.Program) (pitchfork.Report, error) {
		defer rec.start("sched.explore")()
		return pitchfork.Analyze(core.New(ip), pitchfork.Options{
			Bound: spectre.DefaultBound, ForwardHazards: true, Workers: 1,
		})
	}
	machine := func(ip *isa.Program) *core.Machine { return core.New(ip) }
	end := rec.start("repair.repair")
	r, err := repair.Repair(prog, repair.Options{Verify: verify, Machine: machine, Strategy: repair.StrategyAuto})
	end()
	if r == nil {
		return "", err
	}
	v := r.Outcome.String()
	if r.Outcome == repair.OutcomeFailed {
		if !(r.Before.Truncated || r.Before.Interrupted || r.After.Truncated || r.After.Interrupted) {
			if err == nil {
				err = fmt.Errorf("repair failed without an error")
			}
			return "", err
		}
		v, err = vUndecided, nil
	}
	lc.iterations += int64(r.Iterations)
	lc.fences += int64(len(r.Sites))
	lc.addRepairOutcome(v)
	return v, err
}
