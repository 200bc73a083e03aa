package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pitchfork/spectre"
)

// diskUsage sums the sizes of live (non-quarantined) disk entries.
func diskUsage(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		if !strings.HasSuffix(n.Name(), ".json") {
			continue
		}
		info, err := n.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestFrameRoundTrip pins the on-disk entry format: what frame writes,
// unframe accepts, byte-for-byte.
func TestFrameRoundTrip(t *testing.T) {
	for _, val := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("verdict"), 100)} {
		got, ok := unframe(frame(val))
		if !ok {
			t.Fatalf("frame(%d bytes) did not verify", len(val))
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("round trip corrupted payload: got %q want %q", got, val)
		}
	}
}

// TestDiskCorruptionQuarantine is the corruption half of the tentpole:
// every way an entry can be wrong on disk — truncated, bit-flipped,
// tampered header, garbage, empty — must be detected by the checksum
// frame, answered as a miss, renamed aside, and excluded from Keys().
// Never served, never retried, never fatal.
func TestDiskCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("good", []byte("GOOD"))
	c.Put("filler", []byte("F")) // evicts "good" from the 1-entry memory tier
	if v, tier := c.Get("good"); tier != TierDisk || string(v) != "GOOD" {
		t.Fatalf("sanity: framed disk read = (%q, %d), want (GOOD, disk)", v, tier)
	}

	payload := []byte(`{"report":"payload"}`)
	good := frame(payload)
	nl := bytes.IndexByte(good, '\n')
	flipped := bytes.Clone(good)
	flipped[nl+3] ^= 0x40 // corrupt a payload byte under an intact header
	tampered := bytes.Clone(good)
	tampered[2] ^= 0x01 // corrupt the header/magic itself

	corrupt := map[string][]byte{
		"truncated": good[:len(good)-3],
		"bitflip":   flipped,
		"tampered":  tampered,
		"garbage":   []byte("not a cache entry at all"),
		"empty":     {},
	}
	for key, data := range corrupt {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for key := range corrupt {
		if v, tier := c.Get(key); tier != TierNone {
			t.Errorf("%s: corrupt entry was served (%q, tier %d)", key, v, tier)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".json"+quarantineSuffix)); err != nil {
			t.Errorf("%s: not quarantined: %v", key, err)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt file still in place", key)
		}
	}
	if got := c.Stats().Quarantined; got != int64(len(corrupt)) {
		t.Errorf("quarantined counter = %d, want %d", got, len(corrupt))
	}
	for _, key := range c.Keys() {
		if _, bad := corrupt[key]; bad {
			t.Errorf("Keys() still lists quarantined entry %q", key)
		}
	}

	// A quarantined key heals on the next Put: fresh bytes, served again.
	c.Put("bitflip", []byte("HEALED"))
	c.Put("filler2", []byte("F")) // push it out of the memory tier
	if v, tier := c.Get("bitflip"); tier != TierDisk || string(v) != "HEALED" {
		t.Errorf("re-put after quarantine = (%q, %d), want (HEALED, disk)", v, tier)
	}
}

// TestDiskGCBudget: the disk tier must stay under its byte budget by
// evicting least-recently-used entries, and eviction is removal —
// never quarantine, never an error.
func TestDiskGCBudget(t *testing.T) {
	dir := t.TempDir()
	const budget = int64(4096)
	c, err := NewCache(1, dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 400)
	for i := 0; i < 30; i++ {
		c.Put(fmt.Sprintf("k%02d", i), val)
	}
	stats := c.Stats()
	if stats.DiskBytes > budget {
		t.Errorf("accounted disk bytes %d exceed budget %d", stats.DiskBytes, budget)
	}
	if got := diskUsage(t, dir); got > budget {
		t.Errorf("actual disk usage %d exceeds budget %d", got, budget)
	}
	if stats.GCEvictions == 0 {
		t.Error("30 oversized puts ran zero GC evictions")
	}
	if stats.Quarantined != 0 || stats.DiskErrors != 0 {
		t.Errorf("GC misreported as corruption/failure: %+v", stats)
	}
	// Recency order: the newest entry survived, the oldest did not.
	if _, err := os.Stat(filepath.Join(dir, "k29.json")); err != nil {
		t.Errorf("most recent entry evicted: %v", err)
	}
	if _, tier := c.Get("k00"); tier != TierNone {
		t.Error("oldest entry survived a budget 7x smaller than the write volume")
	}
}

// TestDiskGCStartupScan: a restarted daemon inherits a full directory;
// the startup scan must size it, order it by modification time, and
// bring it under the (possibly newly lowered) budget immediately.
func TestDiskGCStartupScan(t *testing.T) {
	dir := t.TempDir()
	unbounded, err := NewCache(1, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 400)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		unbounded.Put(key, val)
		// Deterministic recency: k0 oldest … k9 newest, beyond mtime
		// granularity.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, key+".json"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	const budget = int64(1500) // fits 3 framed entries of ~483 bytes
	c, err := NewCache(1, dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().DiskBytes; got > budget {
		t.Errorf("startup scan left %d bytes over budget %d", got, budget)
	}
	if got := diskUsage(t, dir); got > budget {
		t.Errorf("actual disk usage %d exceeds budget %d after startup GC", got, budget)
	}
	if _, tier := c.Get("k9"); tier != TierDisk {
		t.Error("newest entry did not survive the startup GC")
	}
	if _, tier := c.Get("k0"); tier != TierNone {
		t.Error("oldest entry survived the startup GC")
	}
}

// TestDiskGCConcurrentAccess runs GC against concurrent read, write,
// and promote traffic under -race, covering the eviction-while-being-
// read window: a reader racing an eviction must see either the correct
// bytes or a miss — never corrupt data, never a quarantine.
func TestDiskGCConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	const budget = int64(8 << 10)
	c, err := NewCache(1, dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	const hot = "hotkey"
	hotVal := bytes.Repeat([]byte("H"), 600)
	churnVal := bytes.Repeat([]byte("c"), 600)
	c.Put(hot, hotVal)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churn writer: a stream of puts that keeps the GC evicting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Put(fmt.Sprintf("churn-%02d", i%40), churnVal)
		}
	}()
	// Hot re-putter: re-publishes the hot key so readers keep finding
	// it even as the GC takes it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Put(hot, hotVal)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	// Readers: hammer the hot key through the eviction window. The
	// 1-entry memory tier means almost every read goes to disk.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, tier := c.Get(hot)
				if tier != TierNone && !bytes.Equal(v, hotVal) {
					t.Errorf("read returned wrong bytes during eviction window (%d bytes)", len(v))
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	stats := c.Stats()
	if stats.Quarantined != 0 {
		t.Errorf("concurrent GC quarantined %d entries — evictions must never present as corruption", stats.Quarantined)
	}
	if stats.GCEvictions == 0 {
		t.Error("churn never triggered the GC")
	}
	if stats.DiskBytes > budget {
		t.Errorf("accounted disk bytes %d ended over budget %d", stats.DiskBytes, budget)
	}
}

// TestDiskGCEvictionBetweenReadAndRefresh lands a Put between a disk
// read and the index update that follows it — deterministically,
// through the cache's read hook — and checks that the index still
// accounts exactly the bytes on disk: a read must not re-index an
// entry evicted after it, and a miss must not drop an entry published
// after it.
func TestDiskGCEvictionBetweenReadAndRefresh(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 400)
	framed := int64(len(frame(val)))
	setup := func(t *testing.T) (*Cache, string) {
		dir := t.TempDir()
		c, err := NewCache(1, dir, 2*framed)
		if err != nil {
			t.Fatal(err)
		}
		c.Put("a", val)
		c.Put("b", val) // the 1-entry memory tier now holds only b
		return c, dir
	}
	check := func(t *testing.T, c *Cache, dir string) {
		t.Helper()
		if got, want := c.Stats().DiskBytes, diskUsage(t, dir); got != want {
			t.Errorf("accounted disk bytes %d, actual %d", got, want)
		}
	}

	t.Run("evicted after a hit", func(t *testing.T) {
		c, dir := setup(t)
		c.afterDiskRead = func(string) {
			c.afterDiskRead = nil
			c.Put("c", val) // over budget: the GC evicts a, the LRU tail
		}
		if got, tier := c.Get("a"); tier != TierDisk || !bytes.Equal(got, val) {
			t.Fatalf("Get(a) = %d bytes from tier %v; want the disk entry", len(got), tier)
		}
		if _, err := os.Stat(filepath.Join(dir, "a.json")); !os.IsNotExist(err) {
			t.Fatalf("a was not evicted: %v", err)
		}
		check(t, c, dir)
	})

	t.Run("published after a miss", func(t *testing.T) {
		c, dir := setup(t)
		c.afterDiskRead = func(string) {
			c.afterDiskRead = nil
			c.Put("z", val)
		}
		if _, tier := c.Get("z"); tier != TierNone {
			t.Fatalf("Get(z) answered from tier %v before z existed", tier)
		}
		check(t, c, dir)
	})
}

// TestDiskDegradedAfterRepeatedFailures: a persistently failing disk
// must cost the persistent tier, not availability. After
// diskFailureLimit consecutive I/O failures the tier is disabled,
// /healthz reports degraded (still 200), and requests keep succeeding
// memory-only.
func TestDiskDegradedAfterRepeatedFailures(t *testing.T) {
	flt, err := parseFaults("seed=3,diskwrite=1")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MemEntries: 4, CacheDir: t.TempDir()})
	s.setFaults(flt)
	s.runAnalysis = func(context.Context, *spectre.Analyzer, *spectre.Program) (*spectre.Report, error) {
		return stubReport(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < diskFailureLimit+2; i++ {
		resp, raw := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed with %d during disk failures: %s — disk trouble must never fail requests", i, resp.StatusCode, raw)
		}
	}
	stats := s.Stats()
	if !stats.DiskDegraded {
		t.Errorf("%d consecutive disk failures did not degrade the disk tier", diskFailureLimit+2)
	}
	if stats.DiskErrors < diskFailureLimit {
		t.Errorf("diskErrors = %d, want ≥ %d", stats.DiskErrors, diskFailureLimit)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("degraded /healthz returned %d, want 200 — degraded is not dead", resp.StatusCode)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.DiskTier != "disabled" {
		t.Errorf("healthz = %+v, want status=degraded diskTier=disabled", health)
	}

	// Still serving after degradation.
	if resp, _ := postAnalyze(t, ts.URL, analyzeBody(t, tinySource(0))); resp.StatusCode != http.StatusOK {
		t.Errorf("request after degradation: status %d, want 200", resp.StatusCode)
	}
}

// TestHealthzOK pins the healthy body shape.
func TestHealthzOK(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.DiskTier != "" {
		t.Errorf("healthy /healthz = %d %+v, want 200 {status: ok}", resp.StatusCode, health)
	}
}
