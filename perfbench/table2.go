package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pitchfork/internal/core"
	"pitchfork/internal/crypto"
	"pitchfork/internal/ct"
	"pitchfork/internal/isa"
	"pitchfork/internal/pitchfork"
)

// table2Cell is one built case study under one backend.
type table2Cell struct {
	name string
	prog *isa.Program
	want string
}

// seqCounts are the explorer counters summed over a pass.
type seqCounts struct {
	states, paths, dedup, truncated int64
}

func (c *seqCounts) add(r pitchfork.Report) {
	c.states += int64(r.States)
	c.paths += int64(r.Paths)
	c.dedup += int64(r.DedupHits)
	if r.Truncated {
		c.truncated++
	}
}

// runTable2 runs the paper's Table 2 serially, one cell at a time,
// through the §4.2.1 procedure exactly as crypto.Analyze calls it:
// phase 1 at bound 250 without forwarding hazards, phase 2 (only after
// a clean phase 1) at bound 20 with them, both stopping at the first
// finding. Building the cases is set-up; the seed sets the cell order.
// Each cell starts from a collected heap, so its latency does not
// depend on which cell ran before it; the pass's wall time includes
// those collections but not the repeats of fast cells.
func runTable2(cfg *config) (*result, error) {
	res := &result{opName: "Table 2 cell", extra: map[string][]float64{}}
	cells, err := timeSetup(res, func() ([]table2Cell, error) {
		var cells []table2Cell
		for _, c := range crypto.Cases() {
			row, err := cfg.exp.table2(c.Name)
			if err != nil {
				return nil, err
			}
			for _, m := range []ct.Mode{ct.ModeC, ct.ModeFaCT} {
				comp, err := c.Build(m)
				if err != nil {
					return nil, err
				}
				want := row.C
				if m == ct.ModeFaCT {
					want = row.FaCT
				}
				cells = append(cells, table2Cell{name: c.Name + "/" + m.String(), prog: comp.Prog, want: want})
			}
		}
		rng := rand.New(rand.NewPCG(cfg.seed, 0x7ab1e2))
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		return cells, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var first *seqCounts
	// pass runs every cell once and returns the time spent on repeats,
	// which the caller takes off the pass's wall time.
	pass := func(rec *recorder, lat *[]float64) (*seqCounts, time.Duration, error) {
		var sc seqCounts
		var repeats time.Duration
		for i, c := range cells {
			rec.setOp(i)
			runtime.GC() // charge no cell for the previous cell's garbage
			t0 := time.Now()
			v, err := table2Cell1(rec, c.prog, &sc)
			d := time.Since(t0)
			// A sub-millisecond cell timed once is mostly noise, so for
			// its latency sample a fast cell runs again, untraced and
			// uncounted, until minCellTime has passed; its latency is
			// the median run. The repeats are not part of the pass.
			samples := []float64{ms(d)}
			for total := d; lat != nil && err == nil && total < minCellTime && len(samples) < maxCellRuns; {
				var scratch seqCounts
				t := time.Now()
				again, rerr := table2Cell1(nil, c.prog, &scratch)
				dt := time.Since(t)
				if rerr != nil || again != v {
					v, err = again, rerr
					if err == nil {
						err = fmt.Errorf("verdict changed between runs")
					}
				}
				samples = append(samples, ms(dt))
				total += dt
				repeats += time.Since(t)
			}
			if lat != nil {
				*lat = append(*lat, median(samples))
			}
			res.checks.add(classify(v, c.want, err), c.name)
		}
		return &sc, repeats, nil
	}
	rec := newRecorder()
	var layers []map[string]float64
	untraced := func(int) (time.Duration, error) {
		md := startMem(res)
		var sc *seqCounts
		var repeats time.Duration
		w, err := timed(func() (err error) {
			sc, repeats, err = pass(nil, &res.lat)
			return err
		})
		w -= repeats
		md.record(res)
		if first == nil {
			first = sc
		} else if *sc != *first {
			res.notes = append(res.notes, fmt.Sprintf("exact-repeat drift between passes: %+v vs %+v", *sc, *first))
		}
		return w, err
	}
	traced := func(int) (time.Duration, error) {
		m := rec.mark()
		var sc *seqCounts
		w, err := timed(func() (err error) {
			sc, _, err = pass(rec, nil)
			return err
		})
		lt := summarize(rec.since(m))
		layers = append(layers, schedLayers(lt, sc, lt.total["sched.phase1"]+lt.total["sched.phase2"]))
		return w, err
	}
	if err := runPasses(cfg, res, untraced, traced); err != nil {
		return nil, err
	}
	res.repeat = map[string]int64{"sched.states": first.states, "sched.paths": first.paths, "sched.dedup_hits": first.dedup}
	if !cfg.trace {
		return res, nil
	}
	res.layers = medianLayers(layers)
	return res, writeTrace(cfg, "table2", rec)
}

// A cell faster than minCellTime is repeated until that much time has
// passed, at most maxCellRuns times, for its latency sample.
const (
	minCellTime = 50 * time.Millisecond
	maxCellRuns = 100
)

// table2Cell1 runs the two-phase procedure on one cell.
func table2Cell1(rec *recorder, prog *isa.Program, sc *seqCounts) (string, error) {
	phase := func(name string, opts pitchfork.Options) (string, error) {
		end := rec.start(name)
		r, err := pitchfork.Analyze(core.New(prog), opts)
		end()
		if err != nil {
			return "", err
		}
		sc.add(r)
		return internalVerdict(r), nil
	}
	p1, err := phase("sched.phase1", pitchfork.Options{Bound: pitchfork.BoundNoHazards, StopAtFirst: true})
	if err != nil {
		return "", err
	}
	var err2 error
	v := phasesVerdict(p1, func() string {
		var p2 string
		p2, err2 = phase("sched.phase2", pitchfork.Options{
			Bound: pitchfork.BoundWithHazards, ForwardHazards: true, StopAtFirst: true,
		})
		return p2
	})
	return v, err2
}

// schedLayers fills the sched metrics of one traced pass and zeroes
// every other layer's, so each workload reports the full metric list.
// counted is the self time of the explorations whose states sc counts,
// the base of sched.states_per_ms.
func schedLayers(lt layerTimes, sc *seqCounts, counted time.Duration) map[string]float64 {
	m := zeroLayers()
	explore := lt.total["sched.phase1"] + lt.total["sched.phase2"] + lt.total["sched.explore"]
	m["sched.explore_ms"] = ms(explore)
	m["sched.phase1_ms"] = ms(lt.total["sched.phase1"])
	m["sched.phase2_ms"] = ms(lt.total["sched.phase2"])
	m["sched.states"] = float64(sc.states)
	m["sched.paths"] = float64(sc.paths)
	m["sched.dedup_hits"] = float64(sc.dedup)
	m["sched.truncated"] = float64(sc.truncated)
	m["sched.states_per_ms"] = ratio(float64(sc.states), ms(counted))
	return m
}

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, l := range layerMetrics {
		m[l[0]] = 0
	}
	return m
}

// medianLayers takes each metric's median over the traced passes.
func medianLayers(passes []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range layerMetrics {
		xs := make([]float64, 0, len(passes))
		for _, p := range passes {
			if v, ok := p[l[0]]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			out[l[0]] = median(xs)
		}
	}
	return out
}

// writeTrace saves the run's spans under .bench_build/traces.
func writeTrace(cfg *config, workload string, rec *recorder) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
	return nil
}
