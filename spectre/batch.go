package spectre

import (
	"context"
	"fmt"
	"sync"
)

// BatchItem names one program of a batch analysis.
type BatchItem struct {
	Name    string
	Program *Program
}

// BatchResult is the outcome for one batch item. Exactly one of Report
// and Err is meaningful per item — except for a context cancellation
// mid-run, where a partial report accompanies the context error.
type BatchResult struct {
	Name   string
	Report *Report
	Err    error
}

// AnalyzeBatch analyzes a corpus of programs — the Table-2 and
// Kocher-suite shape — fanning the items across the analyzer's worker
// pool: up to WithWorkers programs run concurrently, each on its own
// single-goroutine exploration. Corpus-level fan-out parallelizes
// strictly better than splitting each small exploration, and keeps
// every per-program report identical to a serial Run.
//
// Results are returned in input order regardless of completion order.
// Cancelling the context stops new items from starting (they report
// the context error with a nil report) and interrupts running ones
// (partial report plus the context error), mirroring Run.
func (a *Analyzer) AnalyzeBatch(ctx context.Context, items []BatchItem) []BatchResult {
	reports, errs := fanOut(ctx, items, a.cfg.Workers, func(ctx context.Context, p *Program) (*Report, error) {
		return a.runWith(ctx, p, a.cfg.Bound, a.cfg.ForwardHazards, nil, 1)
	})
	out := make([]BatchResult, len(items))
	for i, it := range items {
		out[i] = BatchResult{Name: it.Name, Report: reports[i], Err: errs[i]}
	}
	return out
}

// fanOut runs do on every item's program across up to workers
// goroutines and returns the per-item results and errors in input
// order. A nil program fails with an error naming the item. Once ctx
// is done, items not yet started fail with ctx's error; running ones
// see the cancellation through the ctx do receives.
func fanOut[R any](ctx context.Context, items []BatchItem, workers int, do func(context.Context, *Program) (R, error)) ([]R, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	workers = min(workers, len(items))
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if items[i].Program == nil {
					errs[i] = fmt.Errorf("spectre: batch item %d (%q): nil program", i, items[i].Name)
					continue
				}
				results[i], errs[i] = do(ctx, items[i].Program)
			}
		}()
	}
	for i := range items {
		if err := ctx.Err(); err != nil {
			for j := i; j < len(items); j++ {
				errs[j] = err
			}
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return results, errs
}

// RunAll is AnalyzeBatch over bare programs: it analyzes every program
// and returns the reports in input order, plus the first error
// encountered (later reports are still filled in where their runs
// succeeded). It is the corpus-shaped counterpart of Run.
func (a *Analyzer) RunAll(ctx context.Context, progs []*Program) ([]*Report, error) {
	items := make([]BatchItem, len(progs))
	for i, p := range progs {
		items[i] = BatchItem{Name: fmt.Sprintf("program-%d", i), Program: p}
	}
	results := a.AnalyzeBatch(ctx, items)
	reports := make([]*Report, len(results))
	var firstErr error
	for i, r := range results {
		reports[i] = r.Report
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return reports, firstErr
}
