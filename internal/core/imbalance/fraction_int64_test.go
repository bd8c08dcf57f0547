package imbalance

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

// fullyMPITrace builds a 1-rank trace whose whole [0, n) span is MPI,
// entered and left once per nanosecond — n separate 1 ns intervals.
func fullyMPITrace(n int) *trace.Trace {
	tr := trace.New("exact", 1)
	mpi := tr.AddRegion("MPI_Allreduce", trace.ParadigmMPI, trace.RoleCollective)
	for i := 0; i < n; i++ {
		tr.Append(0, trace.Enter(trace.Time(i), mpi))
		tr.Append(0, trace.Leave(trace.Time(i+1), mpi))
	}
	return tr
}

// TestParadigmFractionExactInt64 pins the int64-accumulation contract:
// a span fully covered by MPI must report a fraction of exactly 1.0.
// The pre-fix code folded float64(hi-lo)/denom per interval, and
// 1.0/3 + 1.0/3 + 1.0/3 rounds to 0.9999999999999999 — the kind of
// drift that breaks byte-identical reports between the engines.
func TestParadigmFractionExactInt64(t *testing.T) {
	tr := fullyMPITrace(3)
	frac := ParadigmFractionTimeline(tr, trace.ParadigmMPI, 1)
	if len(frac) != 1 || frac[0] != 1.0 {
		t.Fatalf("timeline fraction = %v, want exactly [1]", frac)
	}
	if got := ParadigmFractionBetween(tr, trace.ParadigmMPI, 0, 3); got != 1.0 {
		t.Fatalf("between fraction = %v, want exactly 1", got)
	}
}

// TestParadigmFractionOrderIndependent checks that splitting the same
// covered time across many intervals changes nothing: integer sums are
// associative, so 1000 slivers must equal one solid block.
func TestParadigmFractionOrderIndependent(t *testing.T) {
	slivers := fullyMPITrace(1000)

	solid := trace.New("solid", 1)
	mpi := solid.AddRegion("MPI_Allreduce", trace.ParadigmMPI, trace.RoleCollective)
	solid.Append(0, trace.Enter(0, mpi))
	solid.Append(0, trace.Leave(1000, mpi))

	a := ParadigmFractionTimeline(slivers, trace.ParadigmMPI, 7)
	b := ParadigmFractionTimeline(solid, trace.ParadigmMPI, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d: slivers %v != solid %v", i, a[i], b[i])
		}
	}
}

// addAllBins is the reference binning: clip the interval against every
// bin.
func addAllBins(acc []int64, first, last, from, to trace.Time) {
	span, n := last-first, trace.Time(len(acc))
	if to <= from {
		return
	}
	for b := trace.Time(0); b < n; b++ {
		lo, hi := max(from, first+span*b/n), min(to, first+span*(b+1)/n)
		if hi > lo {
			acc[b] += int64(hi - lo)
		}
	}
}

// Property: binning each rank's intervals on the worker pool, walking
// the bin edges alongside them, accumulates exactly what clipping every
// interval against every bin does. Ranks number 1–64 and their interval
// lists come time-ordered, shuffled, or overlapping, so the cursor steps
// back; spans are narrower than the bin count (empty bins) or empty, and
// intervals reach outside the span and start or end on bin edges.
func TestBinnerMatchesAllBinsProperty(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			defer parallel.SetJobs(parallel.SetJobs(jobs))
			if err := quick.Check(binsMatch, &quick.Config{MaxCount: 2000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// binsMatch draws one binning case from seed and compares the binner
// with addAllBins.
func binsMatch(seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	first := trace.Time(rng.Intn(1000))
	last := first + trace.Time(rng.Intn(200))
	bins := 1 + rng.Intn(40)
	bn := NewBinner(first, last, bins)
	nranks := 1 + rng.Intn(64)
	perRank := make([][][2]trace.Time, nranks)
	want := make([]int64, bins)
	for rank := range perRank {
		var ivs [][2]trace.Time
		at := first - 20 + trace.Time(rng.Intn(20))
		for i := rng.Intn(20); i > 0; i-- {
			from := at + trace.Time(rng.Intn(30))
			if rng.Intn(4) == 0 { // on a bin edge
				from = bn.edges[rng.Intn(len(bn.edges))]
			}
			to := from + trace.Time(rng.Intn(40)) - 3
			if rng.Intn(4) == 0 {
				to = bn.edges[rng.Intn(len(bn.edges))]
			}
			ivs = append(ivs, [2]trace.Time{from, to})
			at = max(at, to)
			addAllBins(want, first, last, from, to)
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(ivs), func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
		}
		perRank[rank] = ivs
	}
	got, err := bn.sum(context.Background(), nranks, func(rank int, c *BinCursor) {
		for _, iv := range perRank[rank] {
			c.Add(iv[0], iv[1])
		}
	})
	return err == nil && reflect.DeepEqual(got, want)
}
