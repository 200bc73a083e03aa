package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pitchfork/internal/serve"
	"pitchfork/spectre"
)

// The service stream's key universe. Every program gets an analyze key
// at each of analyzeBounds and a repair key at repairBound; a request
// stream introduces each key once (a miss) and repeats earlier keys
// three times as often. specv1_02's analyses exhaust the state budget
// (undecided), and so does the baseline verification of its repair,
// which the server answers with a 500; both stay in the stream.
//
// Bound 14 is left out: there specv1_02's report is 12.8 MB, five times
// the disk budget, and writing it evicts the whole disk tier, so the
// number of re-analyses in a pass, and with it the pass's work, would
// depend on where the seed puts that key (2.6 s to 3.4 s per pass
// across two seeds). Entries larger than the disk budget are therefore
// not measured.
var (
	analyzeBounds = []int{10, 12, 16, 18, 20}
	repairBound   = 12
)

// Stream shape and cache sizing. The memory tier holds fewer entries
// than the repeat window spans, so repeats are served from both tiers;
// the disk budget is below the total size of the entries the stream
// stores (3.4 MB for 209 keys; the failing repair is not cached), so GC
// runs.
const (
	svcRepeats    = 3
	svcWindow     = 64
	svcMemEntries = 32
	svcDiskBytes  = 2560 << 10
)

type svcProgram struct {
	name string
	want expectedProgram
	prog *spectre.Program // for the library reference
}

type svcKey struct {
	prog   int
	bound  int
	repair bool
	body   []byte
}

func (k svcKey) path() string {
	if k.repair {
		return "/v1/repair"
	}
	return "/v1/analyze"
}

type svcSetup struct {
	progs  []svcProgram
	keys   []svcKey
	stream []int // key index of each request, in issue order
	srv    *svcServer
}

// svcServer is an in-process spectred on a loopback listener.
type svcServer struct {
	s    *serve.Server
	hs   *http.Server
	url  string
	dir  string
	done chan error
}

func startServer(dir string, workers int) (*svcServer, error) {
	s, err := serve.New(serve.Config{
		Workers: workers, MemEntries: svcMemEntries, CacheDir: dir, DiskBytes: svcDiskBytes,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain()
		return nil, err
	}
	v := &svcServer{s: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { v.done <- v.hs.Serve(ln) }()
	return v, nil
}

// stop shuts the listener down, waits for the serve loop and every
// analysis to end, and removes the cache directory.
func (v *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := v.hs.Shutdown(ctx)
	if serr := <-v.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	v.s.Drain()
	if rerr := os.RemoveAll(v.dir); err == nil {
		err = rerr
	}
	return err
}

// svcReply is one response, reduced after the pass to what the checks
// need.
type svcReply struct {
	status    int
	hit       bool // answered from the cache
	verdict   string
	canonical [32]byte // digest of the response minus provenance stamps
	detail    string   // the start of a non-200 body
	err       error    // no response, or one that does not parse
}

// svcRef is the response the service should send for a key, from an
// in-process library run. inconclusive marks a repair the library
// cannot decide, which the server answers with a 500 carrying the
// library's error.
type svcRef struct {
	canonical    [32]byte
	inconclusive bool
}

// svcGenerate builds the key universe and the seeded request stream.
// The keys are introduced in a seeded order, one per step; each key is
// requested again svcRepeats times, at steps drawn uniformly from the
// svcWindow steps after its introduction, so three quarters of the
// requests repeat an earlier key. The window is wider than the memory
// tier and its entries fit the disk budget, so repeats are served from
// both tiers and evicted keys are rarely asked for again.
func svcGenerate(seed uint64, progs []svcProgram) ([]svcKey, []int) {
	var keys []svcKey
	for i := range progs {
		for _, b := range analyzeBounds {
			keys = append(keys, svcKey{prog: i, bound: b})
		}
		keys = append(keys, svcKey{prog: i, bound: repairBound, repair: true})
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e41ce))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	due := make([][]int, len(keys)+svcWindow+1) // step -> keys repeated then
	stream := make([]int, 0, (1+svcRepeats)*len(keys))
	for step := range due {
		if step < len(keys) {
			stream = append(stream, step)
			for r := 0; r < svcRepeats; r++ {
				at := step + 1 + rng.IntN(svcWindow)
				due[at] = append(due[at], step)
			}
		}
		rng.Shuffle(len(due[step]), func(i, j int) { due[step][i], due[step][j] = due[step][j], due[step][i] })
		stream = append(stream, due[step]...)
	}
	return keys, stream
}

func svcSetupOnce(cfg *config, workers int) (*svcSetup, error) {
	st := &svcSetup{}
	sources := map[int]string{}
	for _, c := range litmusCorpus() {
		want, err := cfg.exp.program(c.Name)
		if err != nil {
			return nil, err
		}
		p, err := spectre.CompileCTL(c.Source(), spectre.ModeC)
		if err != nil {
			return nil, err
		}
		sources[len(st.progs)] = c.Source()
		st.progs = append(st.progs, svcProgram{name: c.Name, want: want, prog: p})
	}
	wires := map[int]json.RawMessage{}
	for _, f := range spectre.Gallery() {
		want, err := cfg.exp.program(f.ID)
		if err != nil {
			return nil, err
		}
		p := f.Program()
		wire, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		wires[len(st.progs)] = wire
		st.progs = append(st.progs, svcProgram{name: f.ID, want: want, prog: p})
	}
	st.keys, st.stream = svcGenerate(cfg.seed, st.progs)
	for i := range st.keys {
		k := &st.keys[i]
		req := serve.AnalyzeRequest{
			Source:  sources[k.prog],
			Program: wires[k.prog],
			Config:  json.RawMessage(fmt.Sprintf(`{"bound":%d}`, k.bound)),
		}
		var err error
		if k.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(cfg.scratch, "cache-")
	if err != nil {
		return nil, err
	}
	st.srv, err = startServer(dir, workers)
	return st, err
}

// runService drives an in-process spectred closed-loop: GOMAXPROCS
// clients each send the stream's next request and wait for the reply.
// Every pass starts a fresh server with empty cache tiers; the stream is
// the same in every pass.
func runService(cfg *config) (*result, error) {
	res := &result{opName: "service request", extra: map[string][]float64{}}
	workers := runtime.GOMAXPROCS(0)
	st, err := timeSetup(res, func() (*svcSetup, error) { return svcSetupOnce(cfg, workers) },
		func(st *svcSetup) error { return st.srv.stop() })
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}}
	defer client.CloseIdleConnections()

	n := len(st.stream)
	var replies [][]svcReply // per pass
	var latByReq [][]float64 // per pass, ms per request
	var stats []serve.StatsResponse
	hitLat, missLat := []float64{}, []float64{}
	rec := newRecorder()
	var replayed [][]svcReply
	var replayDur [][]float64
	var layers []map[string]float64
	untraced := func(pass int) (time.Duration, error) {
		if pass > 0 {
			dir, err := os.MkdirTemp(cfg.scratch, "cache-")
			if err != nil {
				return 0, err
			}
			if st.srv, err = startServer(dir, workers); err != nil {
				return 0, err
			}
		}
		md := startMem(res)
		lat := make([]float64, n)
		status := make([]int, n)
		bodies := make([][]byte, n)
		errs := make([]error, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					k := st.keys[st.stream[i]]
					t := time.Now()
					status[i], bodies[i], errs[i] = post(client, st.srv.url+k.path(), k.body)
					lat[i] = ms(time.Since(t))
				}
			}()
		}
		wg.Wait()
		w := time.Since(t0)
		md.record(res)
		stats = append(stats, st.srv.s.Stats())
		if err := st.srv.stop(); err != nil {
			return 0, err
		}
		rs := make([]svcReply, n)
		for i := range rs {
			rs[i] = reduceReply(st.keys[st.stream[i]].repair, status[i], bodies[i], errs[i])
			if rs[i].hit {
				hitLat = append(hitLat, lat[i])
			} else {
				missLat = append(missLat, lat[i])
			}
		}
		res.lat = append(res.lat, lat...)
		replies = append(replies, rs)
		latByReq = append(latByReq, lat)
		return w, nil
	}
	traced := func(int) (time.Duration, error) {
		m := rec.mark()
		var rs []svcReply
		var l map[string]float64
		w, err := timed(func() (err error) {
			rs, l, err = st.replay(cfg, rec)
			return err
		})
		if err != nil {
			return 0, err
		}
		dur := make([]float64, n)
		for _, s := range rec.since(m) {
			if s.Name == "request" {
				dur[s.Op] = ms(s.End - s.Start)
			}
		}
		replayed = append(replayed, rs)
		replayDur = append(replayDur, dur)
		layers = append(layers, l)
		return w, nil
	}
	if err := runPasses(cfg, res, untraced, traced); err != nil {
		return nil, err
	}
	res.extra["hit_p50_ms"] = hitLat
	res.extra["miss_p50_ms"] = missLat

	refs, err := st.references()
	if err != nil {
		return nil, err
	}
	non200 := 0
	checkReplies := func(all [][]svcReply, suffix string) {
		for _, rs := range all {
			for i, r := range rs {
				k := st.keys[st.stream[i]]
				p := st.progs[k.prog]
				ref := refs[st.stream[i]]
				what := fmt.Sprintf("%s %s bound %d%s", k.path(), p.name, k.bound, suffix)
				want := p.want.Concrete
				if k.repair {
					want = p.want.Repair
				}
				if r.err == nil && r.status != http.StatusOK {
					non200++
				}
				switch {
				case r.err != nil:
					res.checks.add(outError, what+": "+r.err.Error())
				case r.status != http.StatusOK && (!ref.inconclusive || r.canonical != ref.canonical):
					res.checks.add(outError, fmt.Sprintf("%s: status %d: %s", what, r.status, r.detail))
				case r.canonical != ref.canonical:
					res.checks.add(outWrong, what+": response differs from the in-process library run")
				case r.status != http.StatusOK:
					// The library's repair is inconclusive too, and the
					// server passed its error on: an undecided repair.
					res.checks.add(outUndecided, fmt.Sprintf("%s: status %d for an inconclusive repair", what, r.status))
				default:
					res.checks.add(classify(r.verdict, want, nil), what)
				}
			}
		}
	}
	checkReplies(replies, "")
	checkReplies(replayed, " (traced replay)")
	res.notes = append(res.notes, fmt.Sprintf("non-200 responses: %d of %d", non200, res.checks.attempted()))
	for _, s := range stats {
		res.notes = append(res.notes, fmt.Sprintf("server pass: %d requests, %d mem hits, %d disk hits, %d analyses, %d coalesced, %d rejected, %d errors, %d gc evictions, %d disk bytes",
			s.AnalyzeRequests+s.RepairRequests, s.MemHits, s.DiskHits, s.Analyses, s.Coalesced, s.Rejected, s.Errors, s.GCEvictions, s.DiskBytes))
	}
	if !cfg.trace {
		return res, nil
	}
	l := medianLayers(layers)
	serveLayers(l, stats, res.lat, latByReq, replayDur)
	res.layers = l
	return res, writeTrace(cfg, "service", rec)
}

// serveLayers adds the serve metrics measured on the untraced HTTP
// passes: server counters (median per pass), the p99 request latency,
// and the median per-request overhead of the service over the traced
// in-process replay of the same request.
func serveLayers(l map[string]float64, stats []serve.StatsResponse, lat []float64, latByReq, replayDur [][]float64) {
	med := func(f func(s serve.StatsResponse) int64) float64 {
		xs := make([]float64, len(stats))
		for i, s := range stats {
			xs[i] = float64(f(s))
		}
		return median(xs)
	}
	l["serve.mem_hits"] = med(func(s serve.StatsResponse) int64 { return s.MemHits })
	l["serve.disk_hits"] = med(func(s serve.StatsResponse) int64 { return s.DiskHits })
	l["serve.analyses"] = med(func(s serve.StatsResponse) int64 { return s.Analyses })
	l["serve.coalesced"] = med(func(s serve.StatsResponse) int64 { return s.Coalesced })
	l["serve.rejected"] = med(func(s serve.StatsResponse) int64 { return s.Rejected })
	l["serve.errors"] = med(func(s serve.StatsResponse) int64 { return s.Errors })
	l["serve.gc_evictions"] = med(func(s serve.StatsResponse) int64 { return s.GCEvictions })
	l["serve.hit_ratio"] = median(func() []float64 {
		xs := make([]float64, len(stats))
		for i, s := range stats {
			xs[i] = ratio(float64(s.MemHits+s.DiskHits), float64(s.AnalyzeRequests+s.RepairRequests))
		}
		return xs
	}())
	// Both endpoints share the hit/analysis counters, so the residual is
	// taken over analyze and repair requests together.
	l["serve.unaccounted"] = med(func(s serve.StatsResponse) int64 {
		return s.AnalyzeRequests + s.RepairRequests - (s.MemHits + s.DiskHits + s.Analyses + s.Coalesced + s.Errors)
	})
	l["serve.latency_p99_ms"] = percentile(lat, 99).Value
	n := len(latByReq[0])
	over := make([]float64, n)
	for i := 0; i < n; i++ {
		a := make([]float64, len(latByReq))
		for p := range latByReq {
			a[p] = latByReq[p][i]
		}
		b := make([]float64, len(replayDur))
		for p := range replayDur {
			b[p] = replayDur[p][i]
		}
		over[i] = 1000 * (median(a) - median(b))
	}
	l["serve.overhead_us"] = median(over)
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// reduceReply parses one response and digests it without its
// provenance stamps, the way specload -verify compares it. A non-200
// response is digested as the error it carries.
func reduceReply(repair bool, status int, body []byte, err error) svcReply {
	r := svcReply{status: status, err: err}
	if err != nil {
		return r
	}
	if status != http.StatusOK {
		r.detail = fmt.Sprintf("%.200s", body)
		var env serve.ErrorResponse
		if json.Unmarshal(body, &env) != nil {
			r.err = fmt.Errorf("status %d: %s", status, r.detail)
			return r
		}
		r.canonical, r.err = canonicalError(env)
		return r
	}
	if repair {
		var env serve.RepairResponse
		if r.err = json.Unmarshal(body, &env); r.err != nil {
			return r
		}
		if env.Result == nil {
			r.err = fmt.Errorf("repair response without a result")
			return r
		}
		r.hit = env.CacheHit
		if r.verdict, r.err = repairVerdict(env.Result, nil); r.err != nil {
			return r
		}
		r.canonical, r.err = canonicalRepair(env)
		return r
	}
	var env serve.AnalyzeResponse
	if r.err = json.Unmarshal(body, &env); r.err != nil {
		return r
	}
	if env.Report == nil {
		r.err = fmt.Errorf("analyze response without a report")
		return r
	}
	r.hit = env.Report.CacheHit
	r.verdict = reportVerdict(env.Report)
	r.canonical, r.err = canonicalAnalyze(env)
	return r
}

func canonicalAnalyze(env serve.AnalyzeResponse) ([32]byte, error) {
	rep := *env.Report
	rep.SchemaVersion, rep.CacheHit, rep.Coalesced = "", false, false
	env.Report = &rep
	raw, err := json.Marshal(env)
	return sha256.Sum256(raw), err
}

func canonicalError(env serve.ErrorResponse) ([32]byte, error) {
	raw, err := json.Marshal(env)
	return sha256.Sum256(raw), err
}

func canonicalRepair(env serve.RepairResponse) ([32]byte, error) {
	env.CacheHit, env.Coalesced = false, false
	res := *env.Result
	for _, r := range []**spectre.Report{&res.Before, &res.After} {
		if *r != nil {
			c := **r
			c.SchemaVersion = ""
			*r = &c
		}
	}
	env.Result = &res
	raw, err := json.Marshal(env)
	return sha256.Sum256(raw), err
}

// references runs every key through the library in-process and
// digests the response the service should have sent for it.
func (st *svcSetup) references() ([]svcRef, error) {
	out := make([]svcRef, len(st.keys))
	errs := make([]error, len(st.keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.keys) {
					return
				}
				out[i], errs[i] = st.reference(st.keys[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (st *svcSetup) reference(k svcKey) (svcRef, error) {
	cfg := spectre.DefaultConfig()
	cfg.Bound = k.bound
	an, err := spectre.NewFromConfig(cfg)
	if err != nil {
		return svcRef{}, err
	}
	p := st.progs[k.prog].prog
	fp, ck := p.Fingerprint(), an.Config().CacheKey()
	var ref svcRef
	if k.repair {
		res, err := an.Repair(context.Background(), p)
		if err != nil {
			// An inconclusive repair is an undecided verdict; any other
			// library failure leaves the service nothing to match.
			if v, verr := repairVerdict(res, err); verr != nil || v != vUndecided {
				return svcRef{}, fmt.Errorf("%s: library repair: %w", st.progs[k.prog].name, err)
			}
			ref.inconclusive = true
			ref.canonical, err = canonicalError(serve.ErrorResponse{Code: spectre.ErrCodeInternal, Error: err.Error()})
			return ref, err
		}
		env := serve.RepairResponse{Fingerprint: fp, CacheKey: ck, Result: res}
		if res.Outcome == spectre.RepairRepaired {
			env.RepairedProgram = res.Program
		}
		ref.canonical, err = canonicalRepair(env)
		return ref, err
	}
	rep, err := an.Run(context.Background(), p)
	if err != nil {
		return svcRef{}, fmt.Errorf("%s: library run: %w", st.progs[k.prog].name, err)
	}
	ref.canonical, err = canonicalAnalyze(serve.AnalyzeResponse{Fingerprint: fp, CacheKey: ck, Report: rep})
	return ref, err
}

// replay runs the stream serially in-process, one request at a time,
// through the steps the handler takes, with a span around each layer
// call: decode (with CTL compilation nested), fingerprint, config key,
// cache get, and on a miss the analysis or repair, encode and cache
// put; on a hit, the provenance re-encode.
func (st *svcSetup) replay(cfg *config, rec *recorder) ([]svcReply, map[string]float64, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "replay-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := serve.NewCache(svcMemEntries, dir, svcDiskBytes)
	if err != nil {
		return nil, nil, err
	}
	m := rec.mark()
	out := make([]svcReply, len(st.stream))
	var sc seqCounts
	var rc litmusCounts
	for i, ki := range st.stream {
		rec.setOp(i)
		k := st.keys[ki]
		end := rec.start("request")
		status, raw, err := replayOne(rec, k, cache, &sc, &rc)
		end()
		out[i] = reduceReply(k.repair, status, raw, err)
	}
	lt := summarize(rec.since(m))
	l := schedLayers(lt, &sc, lt.total["sched.explore"])
	l["ct.compile_ms"] = ms(lt.total["ct.compile"])
	l["ct.compiles"] = float64(len(lt.calls["ct.compile"]))
	repairLayers(l, lt, &rc)
	l["spectre.decode_us"] = lt.medianCallUS("spectre.decode")
	l["spectre.fingerprint_us"] = lt.medianCallUS("spectre.fingerprint")
	l["spectre.cache_key_us"] = lt.medianCallUS("spectre.cache_key")
	l["spectre.encode_us"] = lt.medianCallUS("spectre.encode")
	l["serve.cache_get_us"] = lt.medianCallUS("serve.cache_get")
	l["serve.cache_put_us"] = lt.medianCallUS("serve.cache_put")
	return out, l, nil
}

// Cache keys as the server builds them.
func analyzeKey(fp, ck string) string { return "analyze-" + fp + "-" + ck }
func repairKey(fp, ck string) string  { return "repair-" + fp + "-" + ck }

// replayOne answers one request as the handler does and returns the
// status and body it would send; an error means the benchmark's own
// request could not be replayed. An analysis or repair that fails is
// answered 500 with the engine's error, as the server answers it.
func replayOne(rec *recorder, k svcKey, cache *serve.Cache, sc *seqCounts, rc *litmusCounts) (int, []byte, error) {
	endDecode := rec.start("spectre.decode")
	var req serve.AnalyzeRequest
	if err := json.Unmarshal(k.body, &req); err != nil {
		return 0, nil, err
	}
	var prog *spectre.Program
	if req.Source != "" {
		endCompile := rec.start("ct.compile")
		p, err := spectre.CompileCTL(req.Source, spectre.ModeC)
		endCompile()
		if err != nil {
			return 0, nil, err
		}
		prog = p
	} else {
		prog = new(spectre.Program)
		if err := json.Unmarshal(req.Program, prog); err != nil {
			return 0, nil, err
		}
	}
	c := spectre.DefaultConfig()
	if err := json.Unmarshal(req.Config, &c); err != nil {
		return 0, nil, err
	}
	an, err := spectre.NewFromConfig(c)
	if err != nil {
		return 0, nil, err
	}
	endDecode()

	endFP := rec.start("spectre.fingerprint")
	fp := prog.Fingerprint()
	endFP()
	endCK := rec.start("spectre.cache_key")
	ck := an.Config().CacheKey()
	endCK()
	key := analyzeKey(fp, ck)
	if k.repair {
		key = repairKey(fp, ck)
	}
	endGet := rec.start("serve.cache_get")
	raw, tier := cache.Get(key)
	endGet()

	if tier != serve.TierNone {
		defer rec.start("spectre.encode")()
		if k.repair {
			var env serve.RepairResponse
			if err := json.Unmarshal(raw, &env); err != nil {
				return 0, nil, err
			}
			env.CacheHit = true
			out, err := json.Marshal(env)
			return http.StatusOK, out, err
		}
		var env serve.AnalyzeResponse
		if err := json.Unmarshal(raw, &env); err != nil {
			return 0, nil, err
		}
		env.Report.CacheHit = true
		out, err := json.Marshal(env)
		return http.StatusOK, out, err
	}
	engineError := func(err error) (int, []byte, error) {
		out, jerr := json.Marshal(serve.ErrorResponse{Code: spectre.ErrCodeInternal, Error: err.Error()})
		return http.StatusInternalServerError, out, jerr
	}

	var out []byte
	if k.repair {
		end := rec.start("repair.repair")
		res, err := an.Repair(context.Background(), prog)
		end()
		if res != nil {
			rc.iterations += int64(res.Cost.Iterations)
			rc.fences += int64(res.Cost.Fences)
		}
		if v, verr := repairVerdict(res, err); verr == nil {
			rc.addRepairOutcome(v)
		}
		if err != nil {
			return engineError(err)
		}
		endEnc := rec.start("spectre.encode")
		if res.Before != nil {
			res.Before.SchemaVersion = spectre.ReportSchemaVersion
		}
		if res.After != nil {
			res.After.SchemaVersion = spectre.ReportSchemaVersion
		}
		env := serve.RepairResponse{Fingerprint: fp, CacheKey: ck, Result: res}
		if res.Outcome == spectre.RepairRepaired {
			env.RepairedProgram = res.Program
		}
		out, err = json.Marshal(env)
		endEnc()
		if err != nil {
			return 0, nil, err
		}
	} else {
		end := rec.start("sched.explore")
		rep, err := an.Run(context.Background(), prog)
		end()
		if err != nil {
			return engineError(err)
		}
		sc.states += int64(rep.States)
		sc.paths += int64(rep.Paths)
		sc.dedup += int64(rep.DedupHits)
		if rep.Truncated {
			sc.truncated++
		}
		endEnc := rec.start("spectre.encode")
		rep.SchemaVersion = spectre.ReportSchemaVersion
		out, err = json.Marshal(serve.AnalyzeResponse{Fingerprint: fp, CacheKey: ck, Report: rep})
		endEnc()
		if err != nil {
			return 0, nil, err
		}
	}
	endPut := rec.start("serve.cache_put")
	cache.Put(key, out)
	endPut()
	return http.StatusOK, out, nil
}
