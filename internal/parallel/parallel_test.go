package parallel

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestForFillsEverySlot: every index runs exactly once and the slots
// come out identical at any width.
func TestForFillsEverySlot(t *testing.T) {
	const n = 257
	var want []int
	for _, w := range []int{1, 2, 8} {
		slots := make([]int, n)
		var calls atomic.Int64
		got := For(context.Background(), n, w, func(i int) {
			calls.Add(1)
			slots[i] = i*i + 1
		})
		if got != n || calls.Load() != n {
			t.Fatalf("workers %d: For = %d after %d calls, want %d", w, got, calls.Load(), n)
		}
		if want == nil {
			want = slots
		} else if !slices.Equal(slots, want) {
			t.Fatalf("workers %d: slots differ from the serial run", w)
		}
	}
}

// TestForEmpty: n = 0 calls nothing at any width.
func TestForEmpty(t *testing.T) {
	for _, w := range []int{0, 1, 4} {
		if got := For(context.Background(), 0, w, func(int) { t.Error("fn called") }); got != 0 {
			t.Fatalf("workers %d: For over nothing = %d", w, got)
		}
	}
}

// TestForPreCancelled: a context that is already done hands out no
// index.
func TestForPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		if got := For(ctx, 50, w, func(int) { t.Error("fn called after cancellation") }); got != 0 {
			t.Fatalf("workers %d: For = %d on a cancelled ctx, want 0", w, got)
		}
	}
}

// TestForCancelLeavesPrefix: a cancellation issued from inside fn stops
// the hand-out, and the indices that ran are exactly [0, returned). At
// one worker the cut is right after the cancelling index.
func TestForCancelLeavesPrefix(t *testing.T) {
	const n, k = 200, 37
	for _, w := range []int{1, 4} {
		for rep := 0; rep < 20; rep++ {
			ctx, cancel := context.WithCancel(context.Background())
			ran := make([]atomic.Bool, n)
			got := For(ctx, n, w, func(i int) {
				ran[i].Store(true)
				if i == k {
					cancel()
				}
			})
			cancel()
			if got <= k || got > n {
				t.Fatalf("workers %d: For = %d, want a prefix past index %d", w, got, k)
			}
			if w == 1 && got != k+1 {
				t.Fatalf("serial For = %d, want %d", got, k+1)
			}
			for i := range ran {
				if ran[i].Load() != (i < got) {
					t.Fatalf("workers %d: index %d ran = %v with For = %d", w, i, ran[i].Load(), got)
				}
			}
		}
	}
}

// TestWorkers: a positive width is kept, anything else is GOMAXPROCS.
func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	for _, n := range []int{0, -2} {
		if got, want := Workers(n), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}
