// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every verdict against a known
// answer, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 600, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//   - table2: the paper's Table 2 — four crypto case studies × {C, FaCT}
//     through the two-phase procedure, one cell at a time.
//   - litmus: the 25 CTL litmus programs, each checked three ways
//     through the spectre façade (hybrid procedure, symbolic run,
//     auto-portfolio repair).
//   - service: an in-process spectred on a loopback listener, driven
//     closed-loop by GOMAXPROCS clients replaying a seeded request
//     stream over the litmus programs and the gallery figures.
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the run measures untraced passes first, then
// replays the same operations through the layers' exported functions
// with a span around each call, and reports per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it; see BENCHMARK.json for the metric list and README.md for
// what each metric measures.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    uint64
	budget  time.Duration
	trace   bool
	root    string
	scratch string // per-run scratch directory inside the checkout
	exp     *expectations
}

// tally counts checks by outcome.
type tally struct {
	correct, undecided, wrong, errors int
	// notes collects one line per non-correct check kind, with counts.
	notes map[string]int
}

func (t *tally) add(outcome, what string) {
	switch outcome {
	case outCorrect:
		t.correct++
		return
	case outUndecided:
		t.undecided++
	case outWrong:
		t.wrong++
	default:
		t.errors++
	}
	if t.notes == nil {
		t.notes = make(map[string]int)
	}
	t.notes[outcome+": "+what]++
}

func (t *tally) attempted() int { return t.correct + t.undecided + t.wrong + t.errors }
func (t *tally) failed() int    { return t.wrong + t.errors }

// result is what a workload measured.
type result struct {
	setup  []float64 // seconds per set-up, one mean per repetition
	walls  []float64 // seconds per untraced pass
	twalls []float64 // seconds per traced pass
	// lat are the per-operation latencies (ms) behind latency_p50/p90;
	// extra holds further named latency samples printed with them.
	lat   []float64
	extra map[string][]float64
	// opName says what one latency sample is.
	opName string
	checks tally
	// layers are the per-layer metrics of the traced passes.
	layers map[string]float64
	// repeat are the counters that must repeat exactly for a seed.
	repeat map[string]int64
	// notes are free-form lines for the human-readable report.
	notes []string
	// goAllocMB, goGCs and goPauseMS are per-pass Go runtime deltas of
	// the untraced passes, rssMB their peak resident sets.
	goAllocMB, goGCs, goPauseMS, rssMB []float64
	rssNoReset                         bool
	// resetup times one more set-up repetition; see timeSetup.
	resetup func() error
}

var workloads = map[string]func(*config) (*result, error){
	"table2":  runTable2,
	"litmus":  runLitmus,
	"service": runService,
}

// e2eMetrics and layerMetrics are the metric names the final line
// carries, in BENCHMARK.json order, with units.
var e2eMetrics = [][2]string{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"decided_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

var layerMetrics = [][2]string{
	{"ct.compile_ms", "ms"}, {"ct.compiles", "count"},
	{"taint.static_ms", "ms"}, {"taint.certified", "count"},
	{"sched.explore_ms", "ms"}, {"sched.phase1_ms", "ms"}, {"sched.phase2_ms", "ms"},
	{"sched.states", "count"}, {"sched.paths", "count"}, {"sched.dedup_hits", "count"},
	{"sched.truncated", "count"}, {"sched.states_per_ms", "1/ms"},
	{"symx.symbolic_ms", "ms"}, {"symx.queries", "count"}, {"symx.cache_hits", "count"},
	{"symx.definite_unsats", "count"}, {"symx.prop_pruned", "count"}, {"symx.extend_hits", "count"},
	{"symx.probe_iters", "count"}, {"symx.cache_hit_ratio", "ratio"},
	{"repair.repair_ms", "ms"}, {"repair.iterations", "count"}, {"repair.fences", "count"},
	{"repair.repaired", "count"}, {"repair.unrepairable", "count"}, {"repair.inconclusive", "count"},
	{"repair.certified_ratio", "ratio"},
	{"spectre.decode_us", "us"}, {"spectre.fingerprint_us", "us"}, {"spectre.cache_key_us", "us"},
	{"spectre.encode_us", "us"},
	{"serve.cache_get_us", "us"}, {"serve.cache_put_us", "us"}, {"serve.mem_hits", "count"},
	{"serve.disk_hits", "count"}, {"serve.analyses", "count"}, {"serve.coalesced", "count"},
	{"serve.rejected", "count"}, {"serve.errors", "count"}, {"serve.gc_evictions", "count"},
	{"serve.hit_ratio", "ratio"}, {"serve.unaccounted", "count"}, {"serve.overhead_us", "us"},
	{"serve.latency_p99_ms", "ms"},
	{"go.alloc_mb", "MB"}, {"go.gc_count", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"}, {"repeat.drift", "count"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: table2, litmus or service")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 replays the operations with per-layer spans and reports per-layer metrics")
	flag.Parse()
	// The benchmark runs from the root of the checkout it measures.
	if err := run(*workload, *seed, *seconds, *trace, "."); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, root string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want table2, litmus or service)", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := &config{
		seed: seed, budget: time.Duration(seconds) * time.Second, trace: trace == 1,
		root: root, scratch: scratch, exp: exp,
	}
	meta := hostMeta(root)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("host %s\n", meta)

	res, err := fn(cfg)
	if err != nil {
		return err
	}
	drift, err := checkRepeat(build, workload, seed, meta.sourceDigest, res.repeat)
	if err != nil {
		return err
	}
	res.notes = append(res.notes, drift...)

	metrics := make(map[string]float64)
	if cfg.trace {
		for k, v := range res.layers {
			metrics[k] = v
		}
		metrics["trace.overhead_frac"] = median(res.twalls)/median(res.walls) - 1
		metrics["repeat.drift"] = float64(len(drift))
		metrics["go.alloc_mb"] = median(res.goAllocMB)
		metrics["go.gc_count"] = median(res.goGCs)
		metrics["go.gc_pause_ms"] = median(res.goPauseMS)
	}
	e2e := endToEnd(res)
	printHuman(res, e2e, metrics, cfg.trace)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   res.checks.failed() == 0,
		Attempted: res.checks.attempted(),
		Failed:    res.checks.failed(),
		Metrics:   make(map[string]map[string]any),
	}
	list, vals := e2eMetrics, e2e
	if cfg.trace {
		list, vals = layerMetrics, metrics
	}
	for _, m := range list {
		v, ok := vals[m[0]]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m[0])
		}
		out.Metrics[m[0]] = map[string]any{"value": v, "unit": m[1]}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the end-to-end metrics from the untraced passes.
func endToEnd(res *result) map[string]float64 {
	return map[string]float64{
		"setup_s":        median(res.setup),
		"wall_s":         median(res.walls),
		"latency_p50_ms": percentile(res.lat, 50).Value,
		"latency_p90_ms": percentile(res.lat, 90).Value,
		"decided_frac":   ratio(float64(res.checks.correct), float64(res.checks.attempted())),
		"peak_rss_mb":    median(res.rssMB),
	}
}

func printHuman(res *result, e2e, layers map[string]float64, traced bool) {
	fmt.Printf("end-to-end (untraced passes: %d; setup repetitions: %d)\n", len(res.walls), len(res.setup))
	fmt.Printf("  pass wall times (s): untraced %.3f, traced %.3f\n", res.walls, res.twalls)
	for _, m := range e2eMetrics {
		fmt.Printf("  %-22s %14.6f %s", m[0], e2e[m[0]], m[1])
		switch m[0] {
		case "latency_p50_ms", "latency_p90_ms":
			p := percentile(res.lat, 50)
			if m[0] == "latency_p90_ms" {
				p = percentile(res.lat, 90)
			}
			fmt.Printf("   per %s, n=%d, %d beyond", res.opName, p.N, p.Beyond)
		case "decided_frac":
			fmt.Printf("   %d of %d checks", res.checks.correct, res.checks.attempted())
		}
		fmt.Println()
	}
	fmt.Printf("  %-22s %14.6f ratio   %d of %d checks\n", "failed_frac",
		ratio(float64(res.checks.failed()), float64(res.checks.attempted())), res.checks.failed(), res.checks.attempted())
	names := make([]string, 0, len(res.extra))
	for k := range res.extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		p := percentile(res.extra[k], 50)
		fmt.Printf("  %-22s %14.6f ms   n=%d, %d beyond\n", k, p.Value, p.N, p.Beyond)
	}
	fmt.Printf("checks: correct %d, undecided %d, wrong %d, error %d\n",
		res.checks.correct, res.checks.undecided, res.checks.wrong, res.checks.errors)
	keys := make([]string, 0, len(res.checks.notes))
	for k := range res.checks.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s ×%d\n", k, res.checks.notes[k])
	}
	rk := make([]string, 0, len(res.repeat))
	for k := range res.repeat {
		rk = append(rk, k)
	}
	sort.Strings(rk)
	if len(rk) > 0 {
		fmt.Print("exact-repeat counters per pass:")
		for _, k := range rk {
			fmt.Printf(" %s=%d", k, res.repeat[k])
		}
		fmt.Println()
	}
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	if traced {
		fmt.Printf("per-layer (traced passes: %d)\n", len(res.twalls))
		for _, m := range layerMetrics {
			fmt.Printf("  %-24s %16.6f %s\n", m[0], layers[m[0]], m[1])
		}
	}
}

// meta describes the host and the code under test.
type meta struct {
	host, cpu, goVersion, commit, sourceDigest string
	nproc, gomaxprocs                          int
}

func (m meta) String() string {
	return fmt.Sprintf("hostname=%s nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s source_sha256=%s",
		m.host, m.nproc, m.gomaxprocs, m.goVersion, m.cpu, m.commit, m.sourceDigest)
}

func hostMeta(root string) meta {
	m := meta{
		nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version(),
		cpu: "unknown", commit: os.Getenv("PERFBENCH_COMMIT"),
	}
	m.host, _ = os.Hostname() // diagnostic only
	if m.commit == "" {
		m.commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	m.sourceDigest = sourceDigest(root)
	return m
}

// sourceDigest hashes the module's Go sources and go.mod files, which
// identifies the code under test when the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB since
// start or the last reset.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// checkRepeat compares this run's exact-repeat counters with the ones
// an earlier run of the same workload, seed and source recorded under
// build/repeat, recording them if none did. It returns one line per
// drifting counter.
func checkRepeat(build, workload string, seed uint64, digest string, counters map[string]int64) ([]string, error) {
	if len(counters) == 0 {
		return nil, nil
	}
	dir := filepath.Join(build, "repeat")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, digest))
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		raw, err = json.Marshal(counters)
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return nil, err
	}
	var prev map[string]int64
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var drift []string
	for k, v := range counters {
		if p, ok := prev[k]; !ok || p != v {
			drift = append(drift, fmt.Sprintf("exact-repeat drift: %s = %d, an earlier run with this seed and source had %d", k, v, p))
		}
	}
	sort.Strings(drift)
	return drift, nil
}

// runPasses measures untraced passes until the budget is spent: always
// one, then more while the next is predicted to fit. With tracing it
// alternates an untraced and a traced pass, so drift in the host's
// speed touches both alike. A pass returns its wall time, which
// excludes whatever it does before or after the measured work. After
// each pass it times setupRepsPerPass more set-ups.
func runPasses(cfg *config, res *result, untraced, traced func(i int) (time.Duration, error)) error {
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		w, err := untraced(i)
		if err != nil {
			return err
		}
		res.walls = append(res.walls, w.Seconds())
		if cfg.trace {
			w, err := traced(i)
			if err != nil {
				return err
			}
			res.twalls = append(res.twalls, w.Seconds())
		}
		for r := 0; r < setupRepsPerPass; r++ {
			if err := res.resetup(); err != nil {
				return err
			}
		}
		if time.Since(start)+time.Since(t0) > cfg.budget {
			return nil
		}
	}
}

// timed runs f and returns its wall time.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// memDelta measures a pass's Go allocation, GC count and GC pause, and
// its peak resident set.
type memDelta struct{ before runtime.MemStats }

// startMem returns freed memory to the OS and resets the kernel's
// peak-RSS mark, so the VmHWM read after the pass is the pass's own
// peak, not an earlier pass's.
func startMem(res *result) *memDelta {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil && !res.rssNoReset {
		res.rssNoReset = true
		res.notes = append(res.notes, fmt.Sprintf("cannot reset VmHWM (%v); peak_rss_mb is the process's peak so far", err))
	}
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) record(res *result) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.goAllocMB = append(res.goAllocMB, float64(after.TotalAlloc-m.before.TotalAlloc)/(1<<20))
	res.goGCs = append(res.goGCs, float64(after.NumGC-m.before.NumGC))
	res.goPauseMS = append(res.goPauseMS, float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
	res.rssMB = append(res.rssMB, peakRSSMB())
}

// Set-up timing. A single set-up of a few milliseconds is mostly timer
// and scheduler noise, so one repetition sets up back to back until
// minSetupTime has passed and records the mean. The first repetitions
// follow setupWarmup of untimed set-ups, which take the process's
// first-use costs (heap growth, page faults) out of the figure; then
// setupReps repetitions run before the passes and setupRepsPerPass
// after each pass, so that setup_s, their median, samples the host
// over the whole run as wall_s does, not only its first half second.
const (
	setupReps        = 5
	setupRepsPerPass = 2
	minSetupTime     = 25 * time.Millisecond
	setupWarmup      = 100 * time.Millisecond
)

// timeSetup measures the workload's set-up and returns the state the
// workload uses; it leaves res.resetup to time further repetitions.
// teardown, if not nil, releases a state; it is not timed.
func timeSetup[T any](res *result, setup func() (T, error), teardown func(T) error) (T, error) {
	// rep sets up back to back until limit has passed, each set-up
	// releasing the one before (and prev, if have), and returns the
	// last state with the mean time of one set-up.
	rep := func(limit time.Duration, prev T, have bool) (T, float64, error) {
		runtime.GC()
		var spent time.Duration
		n := 0
		for spent < limit {
			if have && teardown != nil {
				if err := teardown(prev); err != nil {
					return prev, 0, err
				}
			}
			t0 := time.Now()
			st, err := setup()
			spent += time.Since(t0)
			if err != nil {
				return st, 0, err
			}
			prev, have = st, true
			n++
		}
		return prev, spent.Seconds() / float64(n), nil
	}
	var zero T
	st, _, err := rep(setupWarmup, zero, false)
	for i := 0; i < setupReps && err == nil; i++ {
		var mean float64
		st, mean, err = rep(minSetupTime, st, true)
		res.setup = append(res.setup, mean)
	}
	if err != nil {
		return st, err
	}
	res.resetup = func() error {
		extra, mean, err := rep(minSetupTime, zero, false)
		if err != nil {
			return err
		}
		res.setup = append(res.setup, mean)
		if teardown != nil {
			return teardown(extra)
		}
		return nil
	}
	return st, nil
}
