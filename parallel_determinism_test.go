// Determinism of the parallel explorer on the paper's §4.2 corpus:
// work-stealing changes which goroutine visits which subtree, but the
// explored tree — and therefore the violation multiset — must be
// exactly the serial one, and the merged report order must be stable.
package pitchfork_test

import (
	"runtime"
	"sort"
	"testing"

	"pitchfork/internal/sched"
	"pitchfork/internal/testcases"
)

func violationStrings(res sched.Result) []string {
	out := make([]string, len(res.Violations))
	for i, v := range res.Violations {
		out[i] = v.String() + "|" + v.Schedule.String()
	}
	sort.Strings(out)
	return out
}

func TestParallelMatchesSerialOnKocherSuite(t *testing.T) {
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	for _, c := range testcases.Kocher() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			m, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			serial, err := sched.Explore(sched.Concrete(m), sched.Options{Bound: 20, ForwardHazards: c.NeedsFwdHazards})
			if err != nil {
				t.Fatal(err)
			}
			par, err := sched.Explore(sched.Concrete(m), sched.Options{
				Bound: 20, ForwardHazards: c.NeedsFwdHazards, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}

			if serial.States != par.States || serial.Paths != par.Paths {
				t.Fatalf("serial %d states / %d paths, parallel %d states / %d paths",
					serial.States, serial.Paths, par.States, par.Paths)
			}
			ss, ps := violationStrings(serial), violationStrings(par)
			if len(ss) != len(ps) {
				t.Fatalf("violation counts differ: serial %d, parallel %d", len(ss), len(ps))
			}
			for i := range ss {
				if ss[i] != ps[i] {
					t.Fatalf("violation sets differ at %d:\n serial   %s\n parallel %s", i, ss[i], ps[i])
				}
			}
		})
	}
}
