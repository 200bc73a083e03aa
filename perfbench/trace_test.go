package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ns := func(n int) time.Duration { return time.Duration(n) }
	spans := []span{
		{Name: "root", Parent: -1, Start: ns(0), End: ns(100)},
		// Two children overlapping each other on [20, 30]: their union
		// [10, 40] covers 30ns of the root, not 40.
		{Name: "a", Parent: 0, Start: ns(10), End: ns(30)},
		{Name: "b", Parent: 0, Start: ns(20), End: ns(40)},
		// A child sticking out of its parent counts only inside it.
		{Name: "c", Parent: 0, Start: ns(90), End: ns(120)},
		// A grandchild is subtracted from its own parent, not the root.
		{Name: "d", Parent: 1, Start: ns(12), End: ns(18)},
		// A child nested inside another child's interval adds nothing.
		{Name: "e", Parent: 0, Start: ns(25), End: ns(28)},
	}
	want := []time.Duration{
		ns(100 - 30 - 10), // root: minus [10,40] and [90,100]
		ns(20 - 6),        // a: minus d
		ns(20),
		ns(30),
		ns(6),
		ns(3),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	lt := summarize(spans)
	if lt.total["root"] != ns(60) || len(lt.calls["a"]) != 1 {
		t.Errorf("summarize: total root %v, calls a %d", lt.total["root"], len(lt.calls["a"]))
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	iv := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a), time.Duration(b)} }
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("no children: covered %v, want 0", got)
	}
	if got := covered(0, 100, [][2]time.Duration{iv(50, 60), iv(10, 20)}); got != 20 {
		t.Errorf("disjoint: covered %v, want 20", got)
	}
	if got := covered(0, 100, [][2]time.Duration{iv(-10, 5), iv(200, 300)}); got != 5 {
		t.Errorf("clipped: covered %v, want 5", got)
	}
}

func TestRecorderNestingAndSince(t *testing.T) {
	var off *recorder
	off.start("x")() // a nil recorder records nothing and must not panic
	r := newRecorder()
	r.start("warmup")()
	m := r.mark()
	r.setOp(7)
	end := r.start("outer")
	r.start("inner")()
	end()
	got := r.since(m)
	if len(got) != 2 || got[0].Parent != -1 || got[1].Parent != 0 || got[1].Op != 7 {
		t.Fatalf("since: %+v", got)
	}
	if got[1].Start < got[0].Start || got[1].End > got[0].End {
		t.Fatalf("inner span not inside outer: %+v", got)
	}
}

func TestRecorderClosesAbandonedChildren(t *testing.T) {
	r := newRecorder()
	end := r.start("outer")
	r.start("left-open") // an early return never closes this one
	end()
	if len(r.open) != 0 {
		t.Fatalf("open stack not empty: %v", r.open)
	}
	if r.spans[1].End == 0 || r.spans[1].End > r.spans[0].End {
		t.Fatalf("abandoned child not closed inside its parent: %+v", r.spans)
	}
}
