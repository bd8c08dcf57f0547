package perfvar

// LiveSource contract: pushing a workload's events rank by rank, sealing
// the stream, and analyzing must be byte-identical to analyzing the same
// materialized trace — and the encoded archive must match trace.Write of
// that trace, so live sessions share content-addressed cache entries
// with offline uploads.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func liveHeader(tr *Trace) *TraceHeader {
	h := &trace.Header{Name: tr.Name, Regions: tr.Regions, Metrics: tr.Metrics}
	for i := range tr.Procs {
		h.Procs = append(h.Procs, tr.Procs[i].Proc)
	}
	return h
}

func TestLiveSourceEquivalence(t *testing.T) {
	tr := workloads.Fig2Trace()
	ls, err := NewLiveSource(liveHeader(tr), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent per-rank feeders, batches of 3 — the measurement shape.
	var wg sync.WaitGroup
	for rank := range tr.Procs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			evs := tr.Procs[rank].Events
			for len(evs) > 0 {
				n := min(3, len(evs))
				if err := ls.Push(rank, evs[:n]...); err != nil {
					t.Errorf("rank %d: %v", rank, err)
					return
				}
				evs = evs[n:]
			}
		}(rank)
	}
	wg.Wait()

	if _, err := ls.Open(context.Background()); !errors.Is(err, ErrLiveNotFinished) {
		t.Fatalf("Open before Finish: %v, want ErrLiveNotFinished", err)
	}
	if err := ls.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := ls.Finish(); err != nil { // idempotent
		t.Fatal(err)
	}

	want, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeSource(context.Background(), ls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine != EngineStream {
		t.Fatalf("engine = %q, want %q", got.Engine, EngineStream)
	}
	assertResultsEqual(t, "live", tr, want, got)

	// The sealed archive must be byte-identical to trace.Write.
	var wantBuf, gotBuf bytes.Buffer
	if err := trace.Write(&wantBuf, tr); err != nil {
		t.Fatal(err)
	}
	if err := ls.WriteArchive(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("WriteArchive differs from trace.Write: %d vs %d bytes", gotBuf.Len(), wantBuf.Len())
	}

	if err := ls.Remove(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveSourceErrors(t *testing.T) {
	tr := workloads.Fig2Trace()
	ls, err := NewLiveSource(liveHeader(tr), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Remove()

	if _, err := NewLiveSource(&trace.Header{}, t.TempDir()); err == nil {
		t.Error("empty header accepted")
	}
	if err := ls.Push(len(tr.Procs), trace.Enter(1, 0)); err == nil {
		t.Error("out-of-range rank accepted")
	}

	// A batch with any violation is rejected whole: nothing recorded.
	if err := ls.Push(0, trace.Enter(100, 0), trace.Leave(50, 0)); !errors.Is(err, ErrLiveOutOfOrder) {
		t.Errorf("unsorted batch: %v, want ErrLiveOutOfOrder", err)
	}
	if err := ls.Push(0, trace.Enter(10, trace.RegionID(len(tr.Regions)))); !errors.Is(err, trace.ErrFormat) {
		t.Errorf("undefined region: %v, want ErrFormat", err)
	}
	if err := ls.Push(0, trace.Sample(10, trace.MetricID(len(tr.Metrics)), 1)); !errors.Is(err, trace.ErrFormat) {
		t.Errorf("undefined metric: %v, want ErrFormat", err)
	}
	if err := ls.Push(0, trace.Send(10, trace.Rank(len(tr.Procs)), 0, 1)); !errors.Is(err, trace.ErrFormat) {
		t.Errorf("undefined peer: %v, want ErrFormat", err)
	}
	if got := ls.Counts()[0]; got != 0 {
		t.Fatalf("rejected batches recorded %d events", got)
	}

	// Accepted events move the per-rank time floor.
	if err := ls.Push(0, trace.Enter(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Push(0, trace.Leave(99, 0)); !errors.Is(err, ErrLiveOutOfOrder) {
		t.Errorf("regressing push: %v, want ErrLiveOutOfOrder", err)
	}
	if err := ls.Push(0, trace.Leave(100, 0)); err != nil { // equal time is fine
		t.Fatal(err)
	}

	if err := ls.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := ls.Push(0, trace.Enter(200, 0)); !errors.Is(err, ErrLiveFinished) {
		t.Errorf("push after Finish: %v, want ErrLiveFinished", err)
	}
}
