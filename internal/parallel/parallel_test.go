package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 7} {
		prev := SetJobs(jobs)
		ran := make([]atomic.Int32, 100)
		if err := ForEach(100, func(i int) error {
			ran[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, got)
			}
		}
		SetJobs(prev)
	}
}

func TestForEachReturnsLowestError(t *testing.T) {
	prev := SetJobs(8)
	defer SetJobs(prev)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		failing := map[int]bool{}
		lowest := -1
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				failing[i] = true
				if lowest < 0 {
					lowest = i
				}
			}
		}
		err := ForEach(n, func(i int) error {
			if failing[i] {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if lowest < 0 {
			if err != nil {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			continue
		}
		want := fmt.Sprintf("index %d", lowest)
		if err == nil || err.Error() != want {
			t.Fatalf("trial %d: error = %v, want %q", trial, err, want)
		}
	}
}

func TestForEachRunsEverythingBelowFailure(t *testing.T) {
	prev := SetJobs(8)
	defer SetJobs(prev)
	const fail = 137
	ran := make([]atomic.Bool, 300)
	err := ForEach(len(ran), func(i int) error {
		ran[i].Store(true)
		if i == fail {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("error = %v", err)
	}
	for i := 0; i < fail; i++ {
		if !ran[i].Load() {
			t.Fatalf("index %d below the failure did not run", i)
		}
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, jobs := range []int{1, 6} {
		prev := SetJobs(jobs)
		out, err := Map(257, func(i int) (int, error) { return i * i, nil })
		SetJobs(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d", jobs, i, v)
			}
		}
	}
}

func TestMapPropagatesLowestError(t *testing.T) {
	prev := SetJobs(4)
	defer SetJobs(prev)
	out, err := Map(50, func(i int) (int, error) {
		if i >= 20 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	if out != nil {
		t.Fatalf("out = %v, want nil", out)
	}
	if err == nil || err.Error() != "fail 20" {
		t.Fatalf("err = %v, want fail 20", err)
	}
}

func TestForEachAllCollectsEverything(t *testing.T) {
	for _, jobs := range []int{1, 5} {
		prev := SetJobs(jobs)
		ran := make([]atomic.Bool, 120)
		errs := ForEachAllCtx(context.Background(), len(ran), func(i int) error {
			ran[i].Store(true)
			if i%3 == 0 {
				return fmt.Errorf("e%d", i)
			}
			return nil
		})
		SetJobs(prev)
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("jobs=%d: index %d skipped", jobs, i)
			}
			want := i%3 == 0
			if got := errs[i] != nil; got != want {
				t.Fatalf("jobs=%d: errs[%d] = %v", jobs, i, errs[i])
			}
		}
	}
}

func TestForEachAllNilWhenClean(t *testing.T) {
	if errs := ForEachAllCtx(context.Background(), 40, func(int) error { return nil }); errs != nil {
		t.Fatalf("errs = %v, want nil", errs)
	}
}

func TestSetJobs(t *testing.T) {
	prev := SetJobs(3)
	defer SetJobs(prev)
	if Jobs() != 3 {
		t.Fatalf("Jobs() = %d, want 3", Jobs())
	}
	if got := SetJobs(0); got != 3 {
		t.Fatalf("SetJobs returned %d, want 3", got)
	}
	if Jobs() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Jobs() = %d, want GOMAXPROCS %d", Jobs(), runtime.GOMAXPROCS(0))
	}
	SetJobs(-5)
	if Jobs() != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative SetJobs must restore the default")
	}
}

func TestEmptyAndTinyFanOuts(t *testing.T) {
	if err := ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	if errs := ForEachAllCtx(context.Background(), 0, func(int) error { return errors.New("never") }); errs != nil {
		t.Fatal(errs)
	}
	out, err := Map(1, func(i int) (string, error) { return "one", nil })
	if err != nil || len(out) != 1 || out[0] != "one" {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestNoGoroutineLeak asserts the pool's workers all exit once a fan-out
// returns: after many fan-outs (including failing ones) the process
// goroutine count settles back to the baseline.
func TestNoGoroutineLeak(t *testing.T) {
	prev := SetJobs(16)
	defer SetJobs(prev)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ForEach(64, func(i int) error {
			if i%13 == 5 {
				return errors.New("fail")
			}
			return nil
		})
		ForEachAllCtx(context.Background(), 64, func(i int) error { return errors.New("all fail") })
		Map(64, func(i int) (int, error) { return i, nil })
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestForEachCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int64{}
	err := ForEachCtx(ctx, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers may claim at most a handful of items before observing the
	// cancellation; with an already-cancelled context they check first.
	if n := ran.Load(); n != 0 {
		t.Fatalf("ran %d items under a pre-cancelled context", n)
	}
}

func TestForEachCtxCancelMidFlight(t *testing.T) {
	defer SetJobs(SetJobs(4))
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	release := make(chan struct{})
	err := ForEachCtx(ctx, 1000, func(i int) error {
		if ran.Add(1) == 4 {
			cancel() // cancel while the pool is mid-run
			close(release)
		}
		<-release
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// After cancellation each worker may finish the item it already
	// claimed, but must not start new ones indefinitely.
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("fan-out ran to completion (%d items) despite cancellation", n)
	}
}

func TestForEachCtxRealErrorBeatsCancellation(t *testing.T) {
	defer SetJobs(SetJobs(2))
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 50, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the index-0 error to outrank cancellation", err)
	}
}

func TestDoCtxReportsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := DoCtx(ctx, 10, func(int) {}); err != context.Canceled {
		t.Fatalf("DoCtx err = %v, want context.Canceled", err)
	}
	if err := DoCtx(context.Background(), 10, func(int) {}); err != nil {
		t.Fatalf("DoCtx err = %v, want nil", err)
	}
}

func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 10, func(i int) (int, error) { return i, nil })
	if err != context.Canceled || out != nil {
		t.Fatalf("MapCtx = (%v, %v), want (nil, context.Canceled)", out, err)
	}
}

func TestForEachAllCtxMarksUnclaimed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := ForEachAllCtx(ctx, 5, func(i int) error { return nil })
	if errs == nil {
		t.Fatal("ForEachAllCtx = nil under cancelled context")
	}
	for i, err := range errs {
		if err != context.Canceled {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

func TestActiveGaugeReturnsToZero(t *testing.T) {
	var maxSeen atomic.Int64
	Do(64, func(i int) {
		if a := int64(Active()); a > maxSeen.Load() {
			maxSeen.Store(a)
		}
	})
	if maxSeen.Load() < 1 {
		t.Fatal("Active() never observed a busy worker")
	}
	if got := Active(); got != 0 {
		t.Fatalf("Active() = %d after fan-out drained, want 0", got)
	}
}
