// Package par provides the deterministic bounded worker pool behind the
// order-independent per-net stages of the RABID pipeline (Stage-1 Steiner
// construction, the per-net delay evaluation that ends every stage) and
// the per-benchmark fan-out of the experiment suite.
//
// The contract that keeps parallel runs bit-identical to sequential ones:
// work item i writes only to its own slot of any shared slice, every
// shared structure that is mutated (the tile graph, the stage orderings)
// stays in sequential sections, and any floating-point reduction over the
// per-item results is performed by the caller in index order after ForEach
// returns. See DESIGN.md, "Parallel execution model".
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values below 1 mean
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and waits for all of them to finish. Every index runs
// regardless of other indices failing: per-index errors are collected and
// returned joined in index order (errors.Join), so partial failures
// surface instead of being dropped. A panic inside fn is captured and
// reported as that index's error, so one bad item cannot tear down the
// whole pool. With a single worker (or a single item) fn runs inline on
// the calling goroutine in index order.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn) //rabid:allow ctxflow ForEach is the documented uncancellable variant of ForEachCtx for fan-outs that must run to completion; ctx-holding callers use ForEachCtx
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done no
// new index is handed out, on any worker. Indices already dispatched run to
// completion (fn is never interrupted mid-item), so shared state is left at
// an item boundary. The returned error joins ctx.Err() — when the context
// was cancelled — after the per-index errors, so callers observe both the
// partial failures and the cancellation (errors.Is sees through the join).
// Which indices ran before the cancellation landed is timing-dependent;
// with an undone context the behaviour and results are exactly ForEach's.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach for workloads needing per-worker scratch state:
// fn receives a worker slot w in [0, min(Workers(workers), n)) alongside
// the item index, and no two concurrent invocations share a slot, so fn
// may address exclusive per-slot scratch (the delay evaluator's per-worker
// arenas). Which items land
// on which slot is timing-dependent, exactly as with ForEach; determinism
// of results must come from fn writing only to per-index state and from
// slot scratch never influencing outputs. With a single worker (or single
// item) fn runs inline on slot 0 in index order.
func ForEachWorker(workers, n int, fn func(w, i int) error) error {
	return forEachWorker(nil, workers, n, fn)
}

// ForEachWorkerCtx is ForEachWorker with ForEachCtx's cancellation
// contract.
func ForEachWorkerCtx(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	return forEachWorker(ctx, workers, n, fn)
}

// forEachWorker implements the fan-outs; a nil ctx is never done, so the
// uncancellable variant originates no context.
func forEachWorker(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if n <= 0 {
		return ctxErr()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	errs := make([]error, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if ctxErr() != nil {
				break
			}
			errs[i] = capture(i, func(i int) error { return fn(0, i) })
		}
		return errors.Join(append(errs, ctxErr())...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(slot int) {
			defer wg.Done()
			for ctxErr() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = capture(i, func(i int) error { return fn(slot, i) })
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(append(errs, ctxErr())...)
}

// capture invokes fn(i), converting a panic into an error.
func capture(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: item %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}
