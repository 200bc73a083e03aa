package spectre_test

import (
	"context"
	"sort"
	"sync"
	"testing"

	"pitchfork/spectre"
)

// TestAnalyzerSharedAcrossGoroutines runs one Analyzer from many
// goroutines at once — the reuse safety the type documents — so the
// race detector can certify it (stopping one exploration must not
// bleed into another).
func TestAnalyzerSharedAcrossGoroutines(t *testing.T) {
	an := mustNew(t, spectre.WithBound(20), spectre.WithWorkers(4))
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines stream-and-stop, half run to the end:
			// interleaved early stops are what the old per-instance
			// stopped flag corrupted.
			if g%2 == 0 {
				rep, err := an.Stream(context.Background(), v1Program(9), func(spectre.Finding) bool { return false })
				if err != nil || !rep.Interrupted || len(rep.Findings) == 0 {
					errs <- "streamed run must stop with its finding"
				}
				return
			}
			rep, err := an.Run(context.Background(), v1Program(9))
			if err != nil {
				errs <- err.Error()
				return
			}
			if rep.SecretFree {
				errs <- "full run must flag the v1 gadget"
			}
			if rep.Interrupted {
				errs <- "a neighbouring stream's stop leaked into this run"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestWorkersMatchSerialFindings checks that the façade-level parallel
// run reports exactly the serial findings (the wire-schema view of the
// explorer determinism guarantee).
func TestWorkersMatchSerialFindings(t *testing.T) {
	serial := mustRun(t, mustNew(t, spectre.WithBound(20)), doubleV1Program())
	par := mustRun(t, mustNew(t, spectre.WithBound(20), spectre.WithWorkers(4)), doubleV1Program())
	if par.Workers != 4 || serial.Workers != 1 {
		t.Fatalf("workers not recorded: serial %d, parallel %d", serial.Workers, par.Workers)
	}
	if serial.States != par.States || serial.Paths != par.Paths {
		t.Fatalf("serial %d states / %d paths, parallel %d states / %d paths",
			serial.States, serial.Paths, par.States, par.Paths)
	}
	key := func(rep *spectre.Report) []string {
		out := make([]string, len(rep.Findings))
		for i, f := range rep.Findings {
			out[i] = f.String()
		}
		sort.Strings(out)
		return out
	}
	ss, ps := key(serial), key(par)
	if len(ss) != len(ps) {
		t.Fatalf("finding counts differ: %d vs %d", len(ss), len(ps))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("finding sets differ:\n serial   %s\n parallel %s", ss[i], ps[i])
		}
	}
}

// TestDedupReportStats checks WithDedup surfaces its pruning in the
// report and preserves the findings.
func TestDedupReportStats(t *testing.T) {
	full := mustRun(t, mustNew(t, spectre.WithBound(20)), v4Program())
	pruned := mustRun(t, mustNew(t, spectre.WithBound(20), spectre.WithDedup(1<<16)), v4Program())
	if full.DedupHits != 0 {
		t.Fatalf("dedup off must report zero hits, got %d", full.DedupHits)
	}
	if pruned.DedupHits == 0 {
		t.Fatal("dedup on must prune reconverged forwarding forks")
	}
	if pruned.States >= full.States {
		t.Fatalf("dedup must shrink the exploration: %d vs %d states", pruned.States, full.States)
	}
	if full.SecretFree != pruned.SecretFree {
		t.Fatal("dedup must not change the verdict")
	}
	if _, err := spectre.New(spectre.WithDedup(-1)); err == nil {
		t.Fatal("negative dedup bound must be rejected")
	}
	if _, err := spectre.New(spectre.WithWorkers(-1)); err == nil {
		t.Fatal("negative workers must be rejected")
	}
}

// TestProcedureInterruptedAccessor pins the three procedure outcomes
// apart: clean, flagged, and interrupted (the satellite fix — an
// interrupted procedure used to be indistinguishable from a flagged
// one through SecretFree alone).
func TestProcedureInterruptedAccessor(t *testing.T) {
	// Flagged: completed procedure, verdict reached.
	pr, err := mustNew(t).RunProcedure(context.Background(), v1Program(9))
	if err != nil {
		t.Fatal(err)
	}
	if pr.SecretFree() || pr.Interrupted() {
		t.Fatalf("flagged procedure: SecretFree=%t Interrupted=%t, want false/false", pr.SecretFree(), pr.Interrupted())
	}

	// Interrupted: cancelled before phase 1 could finish.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pr, _ = mustNew(t).RunProcedure(ctx, v1Program(9))
	if pr == nil {
		t.Fatal("cancelled procedure must still return the partial report")
	}
	if !pr.Interrupted() {
		t.Fatal("cancelled procedure must report Interrupted")
	}
	if pr.SecretFree() {
		t.Fatal("an interrupted procedure must never pass as clean")
	}

	// Clean: both phases complete on the fenced gadget.
	fenced := spectre.NewProgramBuilder().
		Br(spectre.OpGt, []spectre.Operand{spectre.Imm(4), spectre.R(ra)}, 2, 5).
		Fence().
		Load(rb, spectre.Imm(0x40), spectre.R(ra)).
		Load(rc, spectre.Imm(0x44), spectre.R(rb)).
		Public(0x40, 1, 2, 3, 4).
		Public(0x44, 5, 6, 7, 8).
		Secret(0x48, 0xA0, 0xA1, 0xA2, 0xA3).
		SetReg(ra, 9).
		MustBuild()
	pr, err = mustNew(t).RunProcedure(context.Background(), fenced)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.SecretFree() || pr.Interrupted() {
		t.Fatalf("clean procedure: SecretFree=%t Interrupted=%t, want true/false", pr.SecretFree(), pr.Interrupted())
	}
}
