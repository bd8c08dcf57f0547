package imbalance

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

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

// Property: visiting only the overlapping bins accumulates exactly what
// clipping against every bin does — including spans narrower than the
// bin count (empty bins), intervals reaching outside the span, and
// intervals touching bin bounds.
func TestBinnerMatchesAllBinsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		first := trace.Time(rng.Intn(1000))
		last := first + trace.Time(rng.Intn(200))
		bins := 1 + rng.Intn(40)
		bn := NewBinner(first, last, bins)
		want := make([]int64, bins)
		for i := 0; i < 20; i++ {
			from := first - 20 + trace.Time(rng.Intn(int(last-first)+40))
			to := from + trace.Time(rng.Intn(80)) - 5
			bn.AddInterval(from, to)
			addAllBins(want, first, last, from, to)
		}
		return reflect.DeepEqual(bn.acc, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
