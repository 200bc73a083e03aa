package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one recorded interval: a call from the benchmark into one
// layer's exported function. Parent is the index of the enclosing span
// (-1 for a root); Op identifies the workload operation (cell, draw or
// request) the span belongs to.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths call the same methods at the
// cost of a nil check. A recorder is used from one goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setOp tags the spans started from now on with operation id op.
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = op
	}
}

// start opens a span named name as a child of the innermost open span
// and returns the function that closes it.
func (r *recorder) start(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: time.Since(r.t0)})
	pos := len(r.open)
	r.open = append(r.open, idx)
	return func() {
		// Closing a span also closes any child an early return left
		// open, so the stack always matches the call structure.
		now := time.Since(r.t0)
		for _, i := range r.open[pos:] {
			r.spans[i].End = now
		}
		r.open = r.open[:pos]
	}
}

// mark returns the current span count, to be handed to since.
func (r *recorder) mark() int { return len(r.spans) }

// since returns the spans recorded after mark, with Parent re-indexed
// into the returned slice. It is called between passes, when no span
// is open, so no parent precedes mark.
func (r *recorder) since(mark int) []span {
	out := append([]span(nil), r.spans[mark:]...)
	for i := range out {
		if out[i].Parent >= 0 {
			out[i].Parent -= mark
		}
	}
	return out
}

// selfTimes returns, for each span in spans (indexed as in the slice,
// with Parent referring to slice indices), its duration minus the part
// of its interval covered by its direct children. Children may overlap
// each other or stick out of their parent; only the union of their
// intervals clipped to the parent is subtracted.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, iv := range clipped {
		if iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	return total + curB - curA
}

// layerTimes summarizes one pass's spans by name: total self time and
// every call's self time.
type layerTimes struct {
	total map[string]time.Duration
	calls map[string][]time.Duration
}

func summarize(spans []span) layerTimes {
	lt := layerTimes{total: make(map[string]time.Duration), calls: make(map[string][]time.Duration)}
	self := selfTimes(spans)
	for i, s := range spans {
		lt.total[s.Name] += self[i]
		lt.calls[s.Name] = append(lt.calls[s.Name], self[i])
	}
	return lt
}

// medianCallUS is the median self time of one call to name, in µs.
func (lt layerTimes) medianCallUS(name string) float64 {
	xs := make([]float64, len(lt.calls[name]))
	for i, d := range lt.calls[name] {
		xs[i] = us(d)
	}
	return median(xs)
}

// write saves the recorded spans as JSON.
func (r *recorder) write(path string) error {
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
