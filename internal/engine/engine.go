// Package engine is the shared execution substrate of the EMI design
// flow: one bounded worker pool for every parallel fan-out, one memoized
// cache for the repeated PEEC field integrals, and one observability
// layer counting the work actually done (MNA solves, Neumann integrals,
// cache traffic, wall time per phase).
//
// Before this package existed the repository carried three hand-rolled
// worker pools (harmonic solves, coupling extraction, generic
// parallel-each) and recomputed identical mutual-inductance integrals in
// four different call sites. The engine replaces all of them with a
// single substrate whose guarantees the rest of the code relies on:
//
//   - Deterministic results: work item i writes only slot i, so the
//     output of MapCtx/ForEachCtx is independent of goroutine scheduling.
//     Combined with pure per-item functions this makes parallel runs
//     bit-for-bit identical to serial runs.
//   - Bounded global concurrency: nested fan-outs (a pair ranking whose
//     items each fan out harmonic solves) share one token budget instead
//     of multiplying goroutines.
//   - First-error propagation by lowest index, and panic capture: a
//     panicking work item surfaces as an error naming the item instead of
//     killing the process from a bare goroutine.
//
// All state is package-global by design — the flow is one process working
// one project; the cache and the stats are meant to be shared by every
// subsystem that touches field integrals.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// tokens is the global concurrency budget shared by every (possibly
// nested) parallel call. The calling goroutine never needs a token for
// itself, so the pool degrades to serial inline execution when the
// budget is exhausted — nested fan-outs cannot deadlock.
var tokens = struct {
	sync.Mutex
	free int
}{free: runtime.GOMAXPROCS(0) - 1}

// maxParallel is the configured parallelism cap (workers per call,
// including the calling goroutine). 0 means GOMAXPROCS.
var maxParallel atomic.Int64

// SetMaxParallelism caps the number of workers any single MapCtx/ForEachCtx
// call uses, including the calling goroutine; k <= 0 restores the
// default (GOMAXPROCS). Raising the cap above GOMAXPROCS also grows the
// global token budget so tests can exercise true concurrency on small
// machines. It returns the previous cap (0 = default).
func SetMaxParallelism(k int) int {
	old := int(maxParallel.Swap(int64(k)))
	tokens.Lock()
	want := runtime.GOMAXPROCS(0) - 1
	if k-1 > want {
		want = k - 1
	}
	// Adjust the number of *unclaimed* tokens by the capacity delta.
	tokens.free += want - tokenCapacity
	tokenCapacity = want
	tokens.Unlock()
	return old
}

// tokenCapacity tracks the current total token budget (excluding the
// calling goroutine's implicit slot). Guarded by tokens.Mutex.
var tokenCapacity = runtime.GOMAXPROCS(0) - 1

// limit returns the per-call worker cap.
func limit() int {
	if k := int(maxParallel.Load()); k > 0 {
		return k
	}
	return runtime.GOMAXPROCS(0)
}

// acquire claims up to n tokens from the global budget and returns how
// many it got (possibly 0).
func acquire(n int) int {
	if n <= 0 {
		return 0
	}
	tokens.Lock()
	got := tokens.free
	if got > n {
		got = n
	}
	tokens.free -= got
	tokens.Unlock()
	return got
}

// release returns n tokens to the budget.
func release(n int) {
	if n <= 0 {
		return
	}
	tokens.Lock()
	tokens.free += n
	tokens.Unlock()
}

// PanicError wraps a panic recovered from a work item.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements the error interface.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: panic in work item %d: %v", p.Index, p.Value)
}

// firstError collects per-item errors and reports the one with the
// lowest index, making error propagation deterministic under any
// scheduling.
type firstError struct {
	mu    sync.Mutex
	index int
	err   error
}

func (f *firstError) set(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.index {
		f.index, f.err = i, err
	}
	f.mu.Unlock()
}

func (f *firstError) failed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err != nil
}

// ForEachCtx runs fn(0..n-1) over the shared bounded pool and returns the
// lowest-index error, if any. After the first error no new items start
// (items already running finish). A panic in fn is captured and
// reported as a *PanicError. fn must treat distinct indices as
// independent; slot-per-index writes keep results deterministic.
//
// Once ctx is done no new items start (items already running finish)
// and the context's error is returned. fn itself receives no context —
// long-running items that must observe cancellation mid-item should
// capture ctx themselves.
func ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return ForEachStateCtx(ctx, n,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return fn(i) })
}

// ForEachStateCtx is ForEachCtx for work that needs per-worker scratch
// state (a cloned circuit, a factorized analyzer): newState runs once
// per worker, fn receives that worker's state. The serial path calls
// newState exactly once.
func ForEachStateCtx[S any](ctx context.Context, n int, newState func() (S, error), fn func(s S, i int) error) error {
	if n <= 0 {
		return nil
	}
	statPoolBatch(n)
	bctx, batch := obs.Start(ctx, "engine.batch")
	defer batch.End()
	batch.Int("tasks", int64(n))
	workers := limit()
	if workers > n {
		workers = n
	}
	if workers > 1 {
		// The calling goroutine is worker 0; the rest need tokens.
		t0 := time.Now()
		extra := acquire(workers - 1)
		if batch != nil {
			batch.Float("token_wait_ms", float64(time.Since(t0))/1e6)
		}
		workers = extra + 1
		defer release(extra)
	}
	batch.Int("workers", int64(workers))
	if workers <= 1 {
		s, err := newState()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runItemTraced(bctx, s, i, fn, batch.Verbose()); err != nil {
				return err
			}
		}
		return nil
	}

	var next atomic.Int64
	var ferr firstError
	verbose := batch.Verbose()
	work := func() {
		wctx, wsp := obs.Start(bctx, "engine.worker")
		defer wsp.End()
		s, err := newState()
		if err != nil {
			// Attribute state-construction failures to the next
			// unclaimed item so propagation stays deterministic enough
			// (the error itself does not depend on an item).
			ferr.set(int(next.Load()), err)
			return
		}
		items := 0
		defer func() { wsp.Int("items", int64(items)) }()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ferr.failed() {
				return
			}
			if err := ctx.Err(); err != nil {
				ferr.set(i, err)
				return
			}
			items++
			if err := runItemTraced(wctx, s, i, fn, verbose); err != nil {
				ferr.set(i, err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	ferr.mu.Lock()
	defer ferr.mu.Unlock()
	return ferr.err
}

// runItemTraced wraps runItem in an "engine.task" span when the trace is
// verbose; per-item spans for thousand-task batches would blow the span
// cap otherwise.
func runItemTraced[S any](ctx context.Context, s S, i int, fn func(s S, i int) error, verbose bool) error {
	if !verbose {
		return runItem(s, i, fn)
	}
	_, sp := obs.Start(ctx, "engine.task")
	sp.Int("i", int64(i))
	err := runItem(s, i, fn)
	sp.End()
	return err
}

// runItem executes one work item with panic capture.
func runItem[S any](s S, i int, fn func(s S, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := make([]byte, 16<<10)
			stack = stack[:runtime.Stack(stack, false)]
			err = &PanicError{Index: i, Value: r, Stack: stack}
		}
	}()
	return fn(s, i)
}

// MapCtx runs fn(0..n-1) over the pool and returns the results in index
// order. On error the partial results are discarded. Cancellation works
// as in ForEachCtx.
func MapCtx[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
