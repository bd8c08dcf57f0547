package perfvar

// Stream counts: the engine, lint and the causality graph each stream a
// rank once through the one per-rank pass. Only the pass's fallback — a
// candidate evicted over budget — streams the ranks a second time, and
// the engine and a fused lint run share that re-stream.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"perfvar/internal/lint"
	"perfvar/internal/rankpass"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// countingSource counts StreamRank calls per rank on the streams it
// opens.
type countingSource struct {
	src   Source
	mu    sync.Mutex
	calls []int
}

type countingStreams struct {
	SourceStreams
	c *countingSource
}

func (c *countingSource) Open(ctx context.Context) (SourceStreams, error) {
	st, err := c.src.Open(ctx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.calls == nil {
		c.calls = make([]int, st.NumRanks())
	}
	c.mu.Unlock()
	return countingStreams{st, c}, nil
}

func (s countingStreams) StreamRank(rank int, fn func(Event) error) error {
	s.c.mu.Lock()
	s.c.calls[rank]++
	s.c.mu.Unlock()
	return s.SourceStreams.StreamRank(rank, fn)
}

// wantCalls fails unless every rank was streamed want[rank] times, and
// resets the counts.
func (c *countingSource) wantCalls(t *testing.T, label string, want func(rank int) int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for rank, n := range c.calls {
		if n != want(rank) {
			t.Errorf("%s: rank %d streamed %d times, want %d", label, rank, n, want(rank))
		}
		c.calls[rank] = 0
	}
}

func fd4Archive(t *testing.T) []byte {
	t.Helper()
	tr, err := workloads.FD4(workloads.DefaultFD4())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func once(int) int  { return 1 }
func twice(int) int { return 2 }

// lintUnderBudget runs the lint pass over src as RunSource does, but
// with the candidate sets bounded by budget.
func lintUnderBudget(t *testing.T, src Source, budget int) *lint.Result {
	t.Helper()
	ctx := context.Background()
	st, err := src.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	run := lint.NewStreamRun(st.Header(), st.NumRanks(), lint.Options{})
	cfg := rankpass.Config{Budget: budget}
	run.Configure(&cfg)
	p, err := rankpass.Run(ctx, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	res, err := run.Finish(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStreamCountLint(t *testing.T) {
	src := &countingSource{src: ArchiveSource(fd4Archive(t))}
	st, err := src.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lint.RunSource(context.Background(), st, lint.Options{})
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	src.wantCalls(t, "RunSource", once)

	// A budget that keeps the dominant function's segments streams once
	// too; one that evicts them re-streams every rank once, and the
	// diagnostics do not change.
	assertLintEqual(t, "budget 1<<20", want, lintUnderBudget(t, src, 1<<20))
	src.wantCalls(t, "budget 1<<20", once)
	assertLintEqual(t, "budget 8", want, lintUnderBudget(t, src, 8))
	src.wantCalls(t, "budget 8", twice)
}

func TestStreamCountFusedLint(t *testing.T) {
	src := &countingSource{src: ArchiveSource(fd4Archive(t))}
	want, err := AnalyzeSource(context.Background(), src, Options{Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	src.wantCalls(t, "fused", once)
	// Evicting the winner makes the engine and lint fall back at the same
	// region under the same mask: one shared re-stream.
	got, err := AnalyzeSource(context.Background(), src, Options{Lint: true, CandidateSegmentBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	src.wantCalls(t, "fused, budget 8", twice)
	assertLintEqual(t, "fused, budget 8", want.Lint, got.Lint)
	var a, b bytes.Buffer
	if err := want.Report().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Report().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("fused, budget 8: report differs from the single-pass report")
	}
}

// TestStreamCountCausality: the dependency graph streams every rank
// once; naming the candidates' functions then streams each candidate's
// rank once more, and no other rank.
func TestStreamCountCausality(t *testing.T) {
	data := fd4Archive(t)
	res, err := AnalyzeSource(context.Background(), ArchiveSource(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{src: ArchiveSource(data)}
	an, err := CausalitySource(context.Background(), src, res.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	candidate := map[int]bool{}
	for _, c := range an.Candidates {
		if c.Segment >= 0 {
			candidate[int(c.Rank)] = true
		}
	}
	if len(candidate) == 0 {
		t.Fatal("no candidate names a segment")
	}
	src.wantCalls(t, "CausalitySource", func(rank int) int {
		if candidate[rank] {
			return 2
		}
		return 1
	})
}
