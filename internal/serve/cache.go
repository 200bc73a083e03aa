// Package serve is the analysis-as-a-service layer behind cmd/spectred:
// a verdict cache keyed by (program fingerprint, canonical options
// key), request coalescing for in-flight duplicates, a bounded worker
// pool with queue backpressure, and the versioned HTTP API that serves
// the spectre façade to CI-shaped traffic.
//
// The cache observation is Serberus's: Spectre checking as a pipeline
// stage sees highly repetitive traffic — the same program at the same
// configuration, submitted on every CI run — so verdicts keyed by
// content hash make the common case O(1). The two cache tiers split
// the latency/durability trade: an in-memory LRU answers the steady
// state, an on-disk tier survives restarts (a redeployed daemon starts
// warm). Coalescing covers the remaining repetitive case the cache
// cannot: N identical submissions in flight at once share one
// analysis.
//
// The layer is built to lose availability to nothing: every failure
// class has a downgrade, not an error. A corrupt or truncated disk
// entry (every entry is sha256-framed and verified on read) is
// quarantined and treated as a miss; a disk I/O failure degrades to
// miss-and-analyze; repeated disk failures disable the persistent tier
// entirely (the daemon reports "degraded" but keeps serving from
// memory + analysis); a panicking analysis is recovered at the worker
// boundary and surfaced as a structured 500 without taking the daemon
// or any other request down. The disk tier is bounded by a byte budget
// with LRU eviction, so it can run unattended indefinitely.
package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Tier identifies where a cache read was answered.
type Tier int

const (
	// TierNone is a miss.
	TierNone Tier = iota
	// TierMem is an in-memory LRU hit.
	TierMem
	// TierDisk is a persistent-tier hit (promoted to memory on read).
	TierDisk
)

// diskMagic versions the on-disk entry framing. Every persisted entry
// is "diskMagic <sha256-hex> <payload-len>\n<payload>"; anything that
// fails to parse or verify is quarantined, never served.
const diskMagic = "spectrecache1"

// quarantineSuffix is appended to the file name of a corrupt entry.
// Quarantined files no longer end in the entry suffix, so Keys() and
// the startup scan skip them; they are kept (not deleted) so an
// operator can inspect what went wrong.
const quarantineSuffix = ".quarantined"

// diskFailureLimit is how many consecutive disk I/O failures disable
// the persistent tier for the rest of the process. Corruption does not
// count (a quarantined entry is handled, not failing); only read/write
// errors do, and any success resets the streak — so the tier dies only
// when the disk is persistently unhealthy, at which point continuing
// to hammer it buys nothing and the daemon honestly reports degraded.
const diskFailureLimit = 8

// Cache is the two-tier verdict cache. Keys are filename-safe strings
// (the server derives them from hex digests); values are opaque
// response bytes. The memory tier is a bounded LRU; the disk tier —
// enabled by a non-empty directory — persists entries with a sha256
// checksum frame, verified on every read, under an optional byte
// budget enforced by LRU eviction. All methods are safe for concurrent
// use.
//
// The disk tier is best-effort by construction: a failed write, an
// unreadable file, or a corrupt entry degrades to a miss (the analysis
// simply reruns) rather than failing the request. Corrupt entries are
// quarantined (renamed aside) so they are never served and never
// retried; I/O failures are counted, and diskFailureLimit consecutive
// ones disable the tier for the life of the process.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	cap     int
	dir     string

	// flt is the installed fault plan (nil in production). The cache
	// carries it so disk read/write and lookup hooks fire inside the
	// code paths they fault.
	flt *faults

	// Disk-tier index: an LRU over persisted entries with their framed
	// sizes, what the byte-budget GC evicts from. Guarded by dmu, which
	// also covers every change to which entry files exist (publishing
	// rename, eviction, quarantine), so the index always describes the
	// files on disk. Reads and the writes of temp files happen outside
	// the lock, so a reader can race an eviction — that window resolves
	// to either a served (correct) value or a miss, never a wrong value
	// or a stale index entry, and the test suite pins it.
	dmu     sync.Mutex
	dindex  map[string]*list.Element
	dlru    *list.List // front = most recently used
	dbytes  int64
	dbudget int64

	tmpSeq atomic.Uint64

	// afterDiskRead, when set (tests only), runs between a disk read
	// and the index update that follows it.
	afterDiskRead func(key string)

	disabled   atomic.Bool
	consecFail atomic.Int64

	diskErrs    atomic.Int64
	quarantined atomic.Int64
	gcEvictions atomic.Int64
}

type cacheEntry struct {
	key string
	val []byte
}

type diskEntry struct {
	key  string
	size int64
}

// CacheStats snapshots the cache's health counters for /statsz.
type CacheStats struct {
	// DiskErrors counts persistent-tier I/O failures absorbed so far
	// (degraded to misses).
	DiskErrors int64
	// Quarantined counts corrupt or truncated entries renamed aside.
	Quarantined int64
	// GCEvictions counts entries removed by the byte-budget GC.
	GCEvictions int64
	// DiskBytes is the current persistent-tier footprint (framed bytes).
	DiskBytes int64
	// DiskDegraded reports whether repeated failures disabled the
	// persistent tier for the rest of the process.
	DiskDegraded bool
}

// NewCache builds a cache holding at most memEntries values in memory
// (minimum 1). A non-empty dir enables the persistent tier; the
// directory is created if needed, existing entries are scanned (sized,
// ordered by modification time) so the byte budget holds from startup,
// and diskBudget > 0 bounds the tier's total framed bytes with LRU
// eviction (0 means unbounded).
func NewCache(memEntries int, dir string, diskBudget int64) (*Cache, error) {
	if memEntries < 1 {
		memEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	c := &Cache{
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		cap:     memEntries,
		dir:     dir,
		dindex:  make(map[string]*list.Element),
		dlru:    list.New(),
		dbudget: diskBudget,
	}
	if dir != "" {
		c.scanDisk()
		c.gc()
	}
	return c, nil
}

// scanDisk rebuilds the disk-tier index from the directory: size every
// entry, order by modification time so the LRU starts with a sensible
// recency order (checksums are verified lazily, on first read). Files
// that aren't entries — quarantined, temporary, foreign — are ignored.
func (c *Cache) scanDisk() {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		c.diskFailure()
		return
	}
	type scanned struct {
		key   string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, n := range names {
		key, ok := strings.CutSuffix(n.Name(), ".json")
		if !ok {
			continue
		}
		info, err := n.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for _, f := range found { // ascending mtime: newest ends up at the front
		c.dindex[f.key] = c.dlru.PushFront(&diskEntry{key: f.key, size: f.size})
		c.dbytes += f.size
	}
}

// Get returns the cached value for key and the tier that answered. A
// disk-tier hit is checksum-verified and promoted into the memory
// tier; a corrupt entry is quarantined and answered as a miss.
func (c *Cache) Get(key string) ([]byte, Tier) {
	if c.flt.fire(siteCacheLookup) {
		return nil, TierNone
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, TierMem
	}
	c.mu.Unlock()
	if c.dir == "" || c.disabled.Load() {
		return nil, TierNone
	}
	path := c.diskPath(key)
	var data []byte
	var err error
	if c.flt.fire(siteDiskRead) {
		err = errInjectedIO
	} else {
		data, err = os.ReadFile(path)
	}
	if c.afterDiskRead != nil {
		c.afterDiskRead(key)
	}
	if err != nil {
		if os.IsNotExist(err) {
			// Evicted or never written: an ordinary miss, and any stale
			// index entry goes with it.
			c.forgetMissing(key)
		} else {
			c.diskFailure()
		}
		return nil, TierNone
	}
	val, ok := unframe(data)
	if !ok {
		c.quarantine(key, path)
		return nil, TierNone
	}
	c.diskOK()
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
	c.refreshDisk(key)
	return val, TierDisk
}

// Put stores the value in both tiers and runs the byte-budget GC.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
	if c.dir == "" || c.disabled.Load() {
		return
	}
	data := frame(val)
	var err error
	if c.flt.fire(siteDiskWrite) {
		err = errInjectedIO
	} else {
		// Atomic publication through a unique temp name: never let a
		// reader (or a restarted daemon) observe a torn entry, and never
		// let two concurrent writers of the same key tear each other's
		// temp file.
		tmp := fmt.Sprintf("%s.tmp%d", c.diskPath(key), c.tmpSeq.Add(1))
		err = os.WriteFile(tmp, data, 0o644)
		if err == nil {
			err = c.publish(tmp, key, int64(len(data)))
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		c.diskFailure()
		return
	}
	c.diskOK()
	c.gc()
}

func (c *Cache) insertLocked(key string, val []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// publish renames a written temp file into place as key's entry and
// indexes it at the LRU front with its framed size, as one step with
// respect to gc and quarantine.
func (c *Cache) publish(tmp, key string, size int64) error {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if err := os.Rename(tmp, c.diskPath(key)); err != nil {
		return err
	}
	if el, ok := c.dindex[key]; ok {
		de := el.Value.(*diskEntry)
		c.dbytes += size - de.size
		de.size = size
		c.dlru.MoveToFront(el)
		return nil
	}
	c.dindex[key] = c.dlru.PushFront(&diskEntry{key: key, size: size})
	c.dbytes += size
	return nil
}

// refreshDisk moves key's index entry to the LRU front after a read.
// It never inserts one: an entry gone from the index was evicted (or
// quarantined) after the read, and its file with it.
func (c *Cache) refreshDisk(key string) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if el, ok := c.dindex[key]; ok {
		c.dlru.MoveToFront(el)
	}
}

// forgetMissing drops key's index entry after a read found no file —
// unless a Put has published the entry since.
func (c *Cache) forgetMissing(key string) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if _, err := os.Stat(c.diskPath(key)); os.IsNotExist(err) {
		c.dropDiskIndexLocked(key)
	}
}

// dropDiskIndexLocked forgets a disk-tier entry without touching the
// file. The caller holds dmu.
func (c *Cache) dropDiskIndexLocked(key string) {
	if el, ok := c.dindex[key]; ok {
		c.dbytes -= el.Value.(*diskEntry).size
		c.dlru.Remove(el)
		delete(c.dindex, key)
	}
}

// gc evicts least-recently-used disk entries until the tier fits the
// byte budget. Each victim leaves the index and the directory under
// the index lock, so no Put of the same key can land in between; a
// concurrent reader of a victim either finishes its read (serving a
// still-correct value) or sees not-exist (a miss).
func (c *Cache) gc() {
	if c.dbudget <= 0 {
		return
	}
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for c.dbytes > c.dbudget && c.dlru.Len() > 0 {
		key := c.dlru.Back().Value.(*diskEntry).key
		c.dropDiskIndexLocked(key)
		os.Remove(c.diskPath(key))
		c.gcEvictions.Add(1)
	}
}

// quarantine renames a corrupt entry aside — it must never be served
// and never be retried, but an operator may want the bytes.
func (c *Cache) quarantine(key, path string) {
	c.quarantined.Add(1)
	c.dmu.Lock()
	defer c.dmu.Unlock()
	os.Rename(path, path+quarantineSuffix) //nolint:errcheck // best-effort: a failed rename degrades to a reread next time
	c.dropDiskIndexLocked(key)
}

// diskFailure counts one persistent-tier I/O failure; diskFailureLimit
// consecutive ones disable the tier for the rest of the process.
func (c *Cache) diskFailure() {
	c.diskErrs.Add(1)
	if c.consecFail.Add(1) >= diskFailureLimit {
		c.disabled.Store(true)
	}
}

// diskOK resets the consecutive-failure streak.
func (c *Cache) diskOK() {
	c.consecFail.Store(0)
}

// Keys returns every key present in either tier — how the server
// rebuilds its fingerprint index after a restart. Quarantined files no
// longer carry the entry suffix and are excluded.
func (c *Cache) Keys() []string {
	seen := make(map[string]bool)
	var out []string
	c.mu.Lock()
	for k := range c.entries {
		seen[k] = true
		out = append(out, k)
	}
	c.mu.Unlock()
	if c.dir != "" {
		if names, err := os.ReadDir(c.dir); err == nil {
			for _, n := range names {
				key, ok := strings.CutSuffix(n.Name(), ".json")
				if !ok || seen[key] {
					continue
				}
				out = append(out, key)
			}
		}
	}
	return out
}

// MemLen returns the number of memory-tier entries.
func (c *Cache) MemLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the cache's health counters.
func (c *Cache) Stats() CacheStats {
	c.dmu.Lock()
	dbytes := c.dbytes
	c.dmu.Unlock()
	return CacheStats{
		DiskErrors:   c.diskErrs.Load(),
		Quarantined:  c.quarantined.Load(),
		GCEvictions:  c.gcEvictions.Load(),
		DiskBytes:    dbytes,
		DiskDegraded: c.disabled.Load(),
	}
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// frame wraps a payload in the checksummed on-disk format.
func frame(val []byte) []byte {
	sum := sha256.Sum256(val)
	hdr := fmt.Sprintf("%s %x %d\n", diskMagic, sum, len(val))
	out := make([]byte, 0, len(hdr)+len(val))
	out = append(out, hdr...)
	return append(out, val...)
}

// unframe validates a framed entry and returns its payload. Any
// deviation — missing or malformed header, length mismatch (a
// truncated or padded file), checksum mismatch (bit rot, a torn or
// hand-edited file) — reports !ok.
func unframe(data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != diskMagic {
		return nil, false
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, false
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, false
	}
	payload := data[nl+1:]
	if len(payload) != wantLen {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], wantSum) {
		return nil, false
	}
	return payload, true
}
