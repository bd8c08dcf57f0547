package perfvar

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// recycleRun is one analysis the recycling test repeats, and what its
// sequential run produced.
type recycleRun struct {
	name string
	src  Source
	opts Options
	want recycleOutcome
}

// recycleOutcome is everything a run is compared on.
type recycleOutcome struct {
	err    string
	report []byte
	lint   []byte
	mpi    []float64
	matrix *Matrix
}

func analyzeOutcome(r recycleRun) (recycleOutcome, *Result) {
	res, err := AnalyzeSource(context.Background(), r.src, r.opts)
	if err != nil {
		return recycleOutcome{err: err.Error()}, nil
	}
	out := recycleOutcome{mpi: res.MPIFraction, matrix: res.Matrix}
	var b bytes.Buffer
	if err := res.Report().WriteJSON(&b); err != nil {
		return recycleOutcome{err: err.Error()}, nil
	}
	out.report = b.Bytes()
	if res.Lint != nil {
		var lb bytes.Buffer
		if err := res.Lint.WriteJSON(&lb); err != nil {
			return recycleOutcome{err: err.Error()}, nil
		}
		out.lint = lb.Bytes()
	}
	return out, res
}

// diff names the first way got differs from want, or returns "".
func (want recycleOutcome) diff(got recycleOutcome) string {
	switch {
	case got.err != want.err:
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	case !bytes.Equal(got.report, want.report):
		return "report JSON differs"
	case !bytes.Equal(got.lint, want.lint):
		return "lint JSON differs"
	case !reflect.DeepEqual(got.mpi, want.mpi):
		return "MPI fraction timeline differs"
	case !reflect.DeepEqual(got.matrix, want.matrix):
		return "segment matrix differs"
	}
	return ""
}

// cloneMatrix deep-copies m, so a later comparison sees whether m's own
// slices were overwritten.
func cloneMatrix(m *Matrix) *Matrix {
	c := *m
	c.PerRank = make([][]Segment, len(m.PerRank))
	for r, segs := range m.PerRank {
		c.PerRank[r] = append([]Segment(nil), segs...)
	}
	return &c
}

func pvtrBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.Write(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRecycledBuffersConcurrent runs AnalyzeSource on four goroutines
// for 20 rounds over FD4, synthetic and COSMO-SPECS archives — among
// them candidate budgets small enough to evict a loser and to evict the
// winner and fall back, a fused lint run and a truncated archive that
// fails mid-pass —
// and compares every run with its sequential reference. The engine
// recycles candidate-segment and MPI-interval chunks across analyses,
// so a chunk returned while still referenced, or a result aliasing one,
// shows up here as a differing run or as an earlier result's segment
// matrix changing under later analyses.
func TestRecycledBuffersConcurrent(t *testing.T) {
	fd4cfg := workloads.DefaultFD4()
	fd4cfg.Ranks = 24
	fd4, err := workloads.FD4(fd4cfg)
	if err != nil {
		t.Fatal(err)
	}
	cosmo, err := workloads.CosmoSpecs(workloads.DefaultCosmoSpecs())
	if err != nil {
		t.Fatal(err)
	}
	// Enough losing kernel segments per rank to span every chunk size.
	syncfg := synthTestConfig()
	syncfg.KernelCalls = 300
	var synth bytes.Buffer
	if err := syncfg.WriteArchive(&synth); err != nil {
		t.Fatal(err)
	}
	fd4Bytes := pvtrBytes(t, fd4)
	runs := []recycleRun{
		{name: "fd4", src: ArchiveSource(fd4Bytes)},
		{name: "fd4-lint", src: ArchiveSource(fd4Bytes), opts: Options{Lint: true}},
		{name: "synthetic", src: ArchiveSource(synth.Bytes())},
		// 100 records evict the kernel flood mid-pass, its chunks going
		// back to the pool while the rank streams on; 8 evict the winner
		// too and force the fallback pass.
		{name: "synthetic-evict", src: ArchiveSource(synth.Bytes()), opts: Options{CandidateSegmentBudget: 100}},
		{name: "synthetic-fallback", src: ArchiveSource(synth.Bytes()), opts: Options{CandidateSegmentBudget: 8}},
		{name: "cosmo", src: ArchiveSource(pvtrBytes(t, cosmo))},
		{name: "fd4-truncated", src: ArchiveSource(fd4Bytes[:len(fd4Bytes)*2/3])},
	}
	var first []*Result
	for i := range runs {
		var res *Result
		runs[i].want, res = analyzeOutcome(runs[i])
		if runs[i].want.matrix != nil {
			runs[i].want.matrix = cloneMatrix(runs[i].want.matrix)
			first = append(first, res)
		}
	}
	for _, r := range runs {
		if (r.want.err != "") != (r.name == "fd4-truncated") {
			t.Fatalf("setup: %s: error %q", r.name, r.want.err)
		}
	}
	var pinned []*Matrix
	for _, res := range first {
		pinned = append(pinned, cloneMatrix(res.Matrix))
	}

	const workers, rounds = 4, 20
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range runs {
					r := runs[(k+w+round)%len(runs)]
					got, _ := analyzeOutcome(r)
					if d := r.want.diff(got); d != "" {
						errs[w] = fmt.Sprintf("round %d, %s: %s", round, r.name, d)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Fatal(e)
			}
		}
	}
	for i, res := range first {
		if !reflect.DeepEqual(res.Matrix, pinned[i]) {
			t.Fatalf("%s: an earlier result's segment matrix changed under later analyses", res.Matrix.RegionName)
		}
	}
}

// TestWarmAnalyzeAllocs pins what a warm AnalyzeSource over the 200-rank
// FD4 archive allocates, at GOMAXPROCS 1 so that every pooled buffer is
// drawn from one P's pool. The per-rank pass decodes into pooled event
// runs, and gathers a per-event source's events into pooled runs too: a
// run handed to the pass's callback escapes, so a buffer per rank stream
// would cost 6 KiB per rank, 1.2 MiB per analysis here. Before the pass
// took runs the engine allocated 6349 to 6369 times and 763 to 783 kB
// per analysis here, and the bounds hold it there; with the run loop it
// reads about 5750 allocations and 735 to 755 kB.
func TestWarmAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src := ArchiveSource(fd4ArchiveBytes(t))
	analyze := func() {
		if _, err := AnalyzeSource(context.Background(), src, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	analyze()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		analyze()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm AnalyzeSource: %d allocs, %d bytes", allocs, bytes)
	if allocs > 6400 {
		t.Errorf("warm AnalyzeSource allocates %d times, want at most 6400", allocs)
	}
	if bytes > 800_000 {
		t.Errorf("warm AnalyzeSource allocates %d bytes, want at most 800000", bytes)
	}
}
