package core

import (
	"fmt"
	"strings"
)

// Entry is the constraint on a reorder-buffer entry type T: the
// buffer holds *T, and needs to know only which entries are fences
// (the execute rules' side condition). Both value domains' transients,
// TransientOf[V] for labeled words and for symbolic expressions, use
// it.
type Entry[T any] interface {
	*T
	IsFence() bool
}

// Buffer is the reorder buffer buf : N ⇀ TransInstr. Its domain is
// always a contiguous range of indices [Min, Max] (the paper's rules
// "add and remove indices in a way that ensures that buf's domain will
// always be contiguous"), so it is represented as a slice plus a base.
// Indices grow monotonically across the run; the first fetched
// instruction lands at index 1, matching MAX(∅) = 0.
//
// The representation is copy-on-write: Clone is O(1) and shares the
// backing slice (and the entries it points to) with the original.
// Mutating operations re-own the slice lazily, and in-place entry
// mutation goes through Edit, which copies an entry that may still be
// shared with a clone. Reslicing operations (PopMin, TruncateFrom)
// never touch the shared array, so they stay O(1) even when shared.
type Buffer[T any, P Entry[T]] struct {
	base  int // index of items[0]; Min when non-empty
	items []P
	// shared marks the backing array as possibly aliased by a clone;
	// the next array write copies it first.
	shared bool
	// privateFrom is the lowest index whose entry is known to be
	// owned exclusively by this buffer (everything at or above it was
	// appended after the last Clone). Edit mutates those in place and
	// copies older, possibly shared entries.
	privateFrom int
	// arena bump-allocates entries in chunks, so the fetch and
	// execute rules do not pay one heap allocation per instruction.
	// Cells are never reused; a clone starts a fresh arena (the parent
	// keeps the tail of the current chunk, so the two never write the
	// same cell).
	arena []T
}

// transientArenaChunk caps the arena's chunk size. Chunks start small
// and double up to the cap: a freshly forked buffer that only places
// one or two entries before forking again pays no more than one
// allocation per entry, while long straight-line runs amortize to a
// chunk per 32 instructions.
const transientArenaChunk = 32

// alloc returns a fresh arena cell.
func (b *Buffer[T, P]) alloc() P {
	if len(b.arena) == cap(b.arena) {
		n := cap(b.arena) * 2
		if n == 0 {
			n = 2
		}
		if n > transientArenaChunk {
			n = transientArenaChunk
		}
		b.arena = make([]T, 0, n)
	}
	var zero T
	b.arena = append(b.arena, zero)
	return &b.arena[len(b.arena)-1]
}

// NewBuffer returns an empty reorder buffer whose first insertion gets
// index 1.
func NewBuffer[T any, P Entry[T]]() *Buffer[T, P] {
	return &Buffer[T, P]{base: 1, privateFrom: 1}
}

// own re-owns the backing array before a write when it may be shared
// with a clone. Only the pointer slice is copied; the entries stay
// shared and are protected by Edit's entry-level copy-on-write.
func (b *Buffer[T, P]) own() {
	if !b.shared {
		return
	}
	items := make([]P, len(b.items), len(b.items)+8)
	copy(items, b.items)
	b.items = items
	b.shared = false
}

// Len returns the number of buffered transient instructions.
func (b *Buffer[T, P]) Len() int { return len(b.items) }

// Empty reports whether the buffer holds no instructions.
func (b *Buffer[T, P]) Empty() bool { return len(b.items) == 0 }

// Min returns MIN(buf). For an empty buffer it returns the next index
// to be allocated; on the initial buffer that is 1, consistent with
// the paper's MIN(∅) = 0 + the first fetch landing at MAX(∅)+1 = 1.
// Keeping the base (rather than resetting to 0) preserves the
// invariant that Append always inserts at Max()+1 even after the
// buffer drains mid-run.
func (b *Buffer[T, P]) Min() int { return b.base }

// Max returns MAX(buf); for an empty buffer it returns base-1 so that
// Max()+1 is always the next insertion index (0 on the initial empty
// buffer, matching MAX(∅) = 0).
func (b *Buffer[T, P]) Max() int {
	if len(b.items) == 0 {
		return b.base - 1
	}
	return b.base + len(b.items) - 1
}

// Contains reports whether index i is in the buffer's domain.
func (b *Buffer[T, P]) Contains(i int) bool {
	return i >= b.base && i < b.base+len(b.items)
}

// Get returns buf(i).
func (b *Buffer[T, P]) Get(i int) (P, bool) {
	if !b.Contains(i) {
		return nil, false
	}
	return b.items[i-b.base], true
}

// Append inserts at MAX(buf)+1 and returns the new index.
func (b *Buffer[T, P]) Append(t P) int {
	b.own()
	b.items = append(b.items, t)
	return b.base + len(b.items) - 1
}

// AppendT is Append for an entry passed by value: the entry is placed
// in the buffer's arena, so the caller's composite literal stays off
// the heap.
func (b *Buffer[T, P]) AppendT(t T) int {
	nt := b.alloc()
	*nt = t
	return b.Append(nt)
}

// Set replaces buf(i); it panics if i is outside the domain, since the
// step rules only rewrite live entries.
func (b *Buffer[T, P]) Set(i int, t P) {
	if !b.Contains(i) {
		panic(fmt.Sprintf("core: Buffer.Set(%d) outside [%d,%d]", i, b.Min(), b.Max()))
	}
	b.own()
	b.items[i-b.base] = t
}

// SetT is Set for an entry passed by value, placed in the arena like
// AppendT.
func (b *Buffer[T, P]) SetT(i int, t T) {
	nt := b.alloc()
	*nt = t
	b.Set(i, nt)
}

// Edit returns buf(i) for in-place mutation. An entry that may still
// be shared with a clone is copied (into the arena) and re-installed
// first, so the returned entry is exclusively owned by this buffer.
// Step rules that partially resolve an entry (store value/address,
// predicted forwards) must mutate through Edit rather than Get.
func (b *Buffer[T, P]) Edit(i int) (P, bool) {
	if !b.Contains(i) {
		return nil, false
	}
	b.own()
	if i >= b.privateFrom {
		return b.items[i-b.base], true
	}
	cp := b.alloc()
	*cp = *b.items[i-b.base]
	b.items[i-b.base] = cp
	return cp, true
}

// TruncateFrom implements buf[j : j < i]: it removes every entry at
// index ≥ i.
func (b *Buffer[T, P]) TruncateFrom(i int) {
	if i <= b.base {
		b.items = b.items[:0]
		return
	}
	if i > b.base+len(b.items) {
		return
	}
	b.items = b.items[:i-b.base]
}

// PopMin removes and returns buf(MIN(buf)).
func (b *Buffer[T, P]) PopMin() (P, bool) {
	if len(b.items) == 0 {
		return nil, false
	}
	t := b.items[0]
	b.items = b.items[1:]
	b.base++
	return t, true
}

// PopMinN removes the k lowest-indexed entries; used by call-retire and
// ret-retire, which retire their whole expansion at once.
func (b *Buffer[T, P]) PopMinN(k int) {
	if k > len(b.items) {
		panic("core: PopMinN beyond buffer")
	}
	b.items = b.items[k:]
	b.base += k
}

// FenceBefore reports whether any index j < i holds a fence — the
// highlighted side condition ∀j < i : buf(j) ≠ fence on every execute
// rule, in both value domains.
func (b *Buffer[T, P]) FenceBefore(i int) bool {
	n := i - b.base
	if n > len(b.items) {
		n = len(b.items)
	}
	for k := 0; k < n; k++ {
		if b.items[k].IsFence() {
			return true
		}
	}
	return false
}

// Clone returns an independent copy in O(1). The backing array and
// the entries are shared; both buffers mark them copy-on-write, so
// neither can observe the other's subsequent mutations.
func (b *Buffer[T, P]) Clone() *Buffer[T, P] {
	b.shared = true
	b.privateFrom = b.base + len(b.items)
	return &Buffer[T, P]{base: b.base, items: b.items, shared: true, privateFrom: b.privateFrom}
}

// String renders the buffer one entry per line, figure-style.
func (b *Buffer[T, P]) String() string {
	if b.Empty() {
		return "∅"
	}
	var sb strings.Builder
	for j := b.Min(); j <= b.Max(); j++ {
		t, _ := b.Get(j)
		fmt.Fprintf(&sb, "%d ↦ %v\n", j, t)
	}
	return strings.TrimRight(sb.String(), "\n")
}
