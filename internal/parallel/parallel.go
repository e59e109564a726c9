// Package parallel is the module's one index fan-out: run fn(i) for
// every i in [0, n) on a bounded number of goroutines. Every parallel
// stage (the experiment pipelines, the streaming auditor's locate
// stage, measure.Batch, geolint's package loader and loadgen's client
// pool) runs on For, so the byte-identical-at-any-width contract
// (DESIGN.md §6) has one place to hold.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured width: n when positive, else
// GOMAXPROCS. It is the one meaning of a width of 0 across the module.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for i in [0, n) on at most workers goroutines and
// returns once every started call has completed. With workers ≤ 1 the
// calls run inline in index order, the serial reference the
// determinism tests compare parallel runs against. Otherwise indices
// are handed out by an atomic counter, so fn must write its result
// into a per-index slot and must not rely on call order: determinism
// comes from per-entity random streams, never from scheduling.
//
// ctx is checked before each index is handed out; an index that was
// handed out always runs to completion. The indices that ran therefore
// form a prefix [0, k) of the input order, and For returns k (n when
// ctx was never done). Callers that need no cancellation pass
// context.Background().
func For(ctx context.Context, n, workers int, fn func(i int)) int {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			fn(i)
		}
		return n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), n)
}
