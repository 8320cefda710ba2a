package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withParallelism runs fn with the pool capped at k workers, restoring
// the previous cap afterwards. Tests using it must not run in parallel
// with each other (package-global state), so none of them call
// t.Parallel.
// bg is the context of tests that do not cancel.
var bg = context.Background()

func withParallelism(t *testing.T, k int, fn func()) {
	t.Helper()
	old := SetMaxParallelism(k)
	defer SetMaxParallelism(old)
	fn()
}

func TestMapOrderingDeterministic(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		withParallelism(t, k, func() {
			got, err := MapCtx(bg, 100, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("k=%d: slot %d = %d, want %d", k, i, v, i*i)
				}
			}
		})
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	withParallelism(t, 8, func() {
		counts := make([]atomic.Int64, 500)
		if err := ForEachCtx(bg, len(counts), func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if n := counts[i].Load(); n != 1 {
				t.Fatalf("index %d ran %d times", i, n)
			}
		}
	})
}

func TestForEachFirstErrorLowestIndex(t *testing.T) {
	errBoom := errors.New("boom")
	for _, k := range []int{1, 4} {
		withParallelism(t, k, func() {
			err := ForEachCtx(bg, 50, func(i int) error {
				if i == 7 || i == 33 {
					return fmt.Errorf("item %d: %w", i, errBoom)
				}
				return nil
			})
			if err == nil || !errors.Is(err, errBoom) {
				t.Fatalf("k=%d: want wrapped boom, got %v", k, err)
			}
			// Serial execution must deterministically report index 7; the
			// parallel path reports the lowest index among those that ran.
			if k == 1 && err.Error() != "item 7: boom" {
				t.Fatalf("serial error = %v, want item 7", err)
			}
		})
	}
}

func TestForEachPanicCapture(t *testing.T) {
	for _, k := range []int{1, 4} {
		withParallelism(t, k, func() {
			err := ForEachCtx(bg, 10, func(i int) error {
				if i == 3 {
					panic("kaboom")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("k=%d: want PanicError, got %v", k, err)
			}
			if pe.Value != "kaboom" || len(pe.Stack) == 0 {
				t.Fatalf("k=%d: bad panic capture: %+v", k, pe)
			}
		})
	}
}

func TestForEachStatePerWorkerState(t *testing.T) {
	withParallelism(t, 4, func() {
		var states atomic.Int64
		seen := make([]int64, 200)
		err := ForEachStateCtx(bg, len(seen),
			func() (int64, error) { return states.Add(1), nil },
			func(s int64, i int) error {
				atomic.StoreInt64(&seen[i], s)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if n := states.Load(); n < 1 || n > 4 {
			t.Fatalf("state constructors ran %d times, want 1..4", n)
		}
		for i, s := range seen {
			if s == 0 {
				t.Fatalf("index %d never ran", i)
			}
		}
	})
}

func TestForEachStateSetupError(t *testing.T) {
	errSetup := errors.New("setup failed")
	for _, k := range []int{1, 4} {
		withParallelism(t, k, func() {
			err := ForEachStateCtx(bg, 10,
				func() (int, error) { return 0, errSetup },
				func(int, int) error { return nil })
			if !errors.Is(err, errSetup) {
				t.Fatalf("k=%d: want setup error, got %v", k, err)
			}
		})
	}
}

func TestNestedForEachDoesNotDeadlock(t *testing.T) {
	withParallelism(t, 4, func() {
		var total atomic.Int64
		err := ForEachCtx(bg, 8, func(i int) error {
			return ForEachCtx(bg, 8, func(j int) error {
				total.Add(1)
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if total.Load() != 64 {
			t.Fatalf("ran %d inner items, want 64", total.Load())
		}
	})
}

func TestHasherDistinguishesInputs(t *testing.T) {
	h := NewHasher()
	h.Float64(1.0)
	h.Float64(2.0)
	a := h.Sum()
	h.Reset()
	h.Float64(2.0)
	h.Float64(1.0)
	b := h.Sum()
	if a == b {
		t.Fatal("order-insensitive hash")
	}
	h.Reset()
	h.Float64(1.0)
	h.Float64(2.0)
	if h.Sum() != a {
		t.Fatal("hash not reproducible")
	}
}

func TestMemoCachesAndCounts(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()
	ResetStats()
	h := NewHasher()
	h.Float64(42)
	key := h.Sum()
	calls := 0
	f := func() float64 { calls++; return 3.25 }
	if v := Memo(key, f); v != 3.25 {
		t.Fatalf("miss returned %v", v)
	}
	if v := Memo(key, f); v != 3.25 {
		t.Fatalf("hit returned %v", v)
	}
	if calls != 1 {
		t.Fatalf("miss fn ran %d times, want 1", calls)
	}
	s := Snapshot()
	if s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", s.CacheHits, s.CacheMisses)
	}
}

func TestMemoOptOut(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	SetCacheEnabled(false)
	h := NewHasher()
	h.Float64(7)
	key := h.Sum()
	calls := 0
	for i := 0; i < 3; i++ {
		Memo(key, func() float64 { calls++; return 1 })
	}
	if calls != 3 {
		t.Fatalf("disabled cache memoized anyway (%d calls)", calls)
	}
}

// TestCacheStress hammers the shared cache from GOMAXPROCS (at least 8)
// goroutines with overlapping keys while another goroutine toggles the
// enable switch and resets — the race-hardening test for the sharded
// locking. Run with -race.
func TestCacheStress(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()
	workers := runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	const keys = 256
	const iters = 2000
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHasher()
			for i := 0; i < iters; i++ {
				k := (i*7 + w) % keys
				h.Reset()
				h.Int(k)
				want := float64(k) * 1.5
				if got := Memo(h.Sum(), func() float64 { return want }); got != want {
					wrong.Add(1)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			SetCacheEnabled(i%2 == 0)
			ResetCache()
		}
		SetCacheEnabled(true)
	}()
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d wrong cache results under contention", wrong.Load())
	}
}

// TestCacheEviction fills one shard past its cap and checks the cache
// keeps answering correctly afterwards.
func TestCacheEviction(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()
	// Same shard: keep key[0] % cacheShards constant.
	for i := 0; i < maxPerShard+10; i++ {
		k := Key{uint64(i) * cacheShards, uint64(i)}
		want := float64(i)
		if got := Memo(k, func() float64 { return want }); got != want {
			t.Fatalf("entry %d: got %v", i, got)
		}
	}
}
