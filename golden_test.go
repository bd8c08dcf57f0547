package perfvar

// Golden files: the dominant region's segment matrix and the 20-bin MPI
// fraction timeline of every paper workload, plus the online detector's
// alerts on the interrupted FD4 run, frozen byte for byte under
// testdata/golden/. Every segmentation path — the engine's single pass,
// its fallback pass, segment.Compute, and the online analyzer — must
// reproduce them. The profile views (flat profile, call tree, rank
// profiles, windowed MPI fraction), the causality JSON and the lint JSON
// are frozen the same way. Regenerate after an intended change with
//
//	go test -run TestGolden -update .

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"perfvar/internal/baseline"
	"perfvar/internal/callstack"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/lint"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/ from the current code")

// checkGolden compares got with testdata/golden/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from the golden file (%d vs %d bytes)", path, len(got), len(want))
	}
}

func goldenFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// formatSegmentsGolden renders a segment matrix as one line per rank of
// [start,end,sync] triples, followed by the MPI fraction timeline.
func formatSegmentsGolden(m *Matrix, mpi []float64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "region %q\n", m.RegionName)
	for rank, segs := range m.PerRank {
		fmt.Fprintf(&b, "rank %d:", rank)
		for i, s := range segs {
			if s.Index != i || int(s.Rank) != rank {
				fmt.Fprintf(&b, " (rank %d index %d)", s.Rank, s.Index)
			}
			fmt.Fprintf(&b, " [%d,%d,%d]", s.Start, s.End, s.Sync)
		}
		b.WriteByte('\n')
	}
	b.WriteString("mpi:")
	for _, f := range mpi {
		b.WriteString(" " + goldenFloat(f))
	}
	b.WriteByte('\n')
	return b.Bytes()
}

func goldenWorkloads() []struct {
	name string
	gen  func() (*Trace, error)
} {
	return []struct {
		name string
		gen  func() (*Trace, error)
	}{
		{"fig2", func() (*Trace, error) { return workloads.Fig2Trace(), nil }},
		{"fig3", func() (*Trace, error) { return workloads.Fig3Trace(), nil }},
		{"cosmo", func() (*Trace, error) { return workloads.CosmoSpecs(workloads.DefaultCosmoSpecs()) }},
		{"fd4", func() (*Trace, error) { return workloads.FD4(workloads.DefaultFD4()) }},
		{"wrf", func() (*Trace, error) { return workloads.WRF(workloads.DefaultWRF()) }},
	}
}

// TestGoldenSegments pins the segment matrix and MPI timeline of each
// workload and checks that the engine's single pass, its forced fallback
// pass and the materialized segment.Compute/MPIFractionTimeline pair
// all agree with the golden bytes.
func TestGoldenSegments(t *testing.T) {
	for _, w := range goldenWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			tr, err := w.gen()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Analyze(tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := formatSegmentsGolden(res.Matrix, res.MPIFraction)
			checkGolden(t, w.name+".segments", got)

			// A one-record budget evicts every candidate, so the winner is
			// segmented by the fallback pass.
			forced, err := Analyze(tr, Options{CandidateSegmentBudget: 1})
			if err != nil {
				t.Fatal(err)
			}
			if alt := formatSegmentsGolden(forced.Matrix, forced.MPIFraction); !bytes.Equal(alt, got) {
				t.Error("fallback pass differs from the single pass")
			}

			m, err := segment.Compute(tr, res.Matrix.Region, nil)
			if err != nil {
				t.Fatal(err)
			}
			if alt := formatSegmentsGolden(m, imbalance.MPIFractionTimeline(tr, 20)); !bytes.Equal(alt, got) {
				t.Error("segment.Compute and MPIFractionTimeline differ from the engine")
			}
		})
	}
}

// TestGoldenOnline pins the online detector on the interrupted 24-rank
// FD4 run: every alert, in the order raised, and the segment total.
func TestGoldenOnline(t *testing.T) {
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 24
	cfg.Iterations = 10
	cfg.InterruptRank = 7
	cfg.InterruptIteration = 6
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OnlineConfig{Ranks: tr.NumRanks(), Regions: tr.Regions, DominantName: "iteration"}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	alerts, err := a.FeedTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "seen %d\n", a.SeenSegments())
	for _, al := range alerts {
		s := al.Segment
		fmt.Fprintf(&b, "alert rank %d index %d [%d,%d,%d] score %s seen %d\n",
			s.Rank, s.Index, s.Start, s.End, s.Sync, goldenFloat(al.Score), al.SeenSegments)
	}
	checkGolden(t, "fd4-online.alerts", b.Bytes())
}

// formatProfileGolden renders the profiler-side views of tr: the flat
// profile (every RegionProfile field and TotalTime), the full call tree,
// the per-rank exclusive-time vectors with their MPI fraction, and the
// MPI share of the second half of the run.
func formatProfileGolden(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	prof, err := callstack.ProfileOf(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "total %d\n", prof.TotalTime)
	for _, rp := range prof.Regions {
		fmt.Fprintf(&b, "region %d %q count %d incl %d excl %d max %d min %d ranks %d\n",
			rp.Region, tr.Region(rp.Region).Name, rp.Count, rp.SumInclusive, rp.SumExclusive,
			rp.MaxInclusive, rp.MinInclusive, rp.Ranks)
	}
	tree, err := BuildCallTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("calltree:\n")
	if err := tree.Print(&b, -1); err != nil {
		t.Fatal(err)
	}
	rps, err := baseline.RankProfiles(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range rps {
		fmt.Fprintf(&b, "rank %d total %s:", rp.Rank, goldenFloat(rp.Total))
		for _, v := range rp.ExclusiveByRegion {
			b.WriteString(" " + goldenFloat(v))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "profile mpi fraction %s\n", goldenFloat(baseline.MPIFraction(tr, rps)))
	first, last := tr.Span()
	mid := first + (last-first)/2
	fmt.Fprintf(&b, "mpi between %d and %d: %s\n", mid, last,
		goldenFloat(imbalance.ParadigmFractionBetween(tr, trace.ParadigmMPI, mid, last)))
	return b.Bytes()
}

// TestGoldenProfiles pins each workload's flat profile, call tree, rank
// profiles and windowed MPI fraction.
func TestGoldenProfiles(t *testing.T) {
	for _, w := range goldenWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			tr, err := w.gen()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, w.name+".profile", formatProfileGolden(t, tr))
		})
	}
}

// TestGoldenCausalityAndLint pins the causality JSON and the lint JSON of
// the parallel-equivalence traces, and the lint JSON of the checked-in
// example traces.
func TestGoldenCausalityAndLint(t *testing.T) {
	for name, tr := range equivTraces(t) {
		t.Run(name, func(t *testing.T) {
			res, err := Analyze(tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			caus, err := res.Causality()
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(caus)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".causality.json", append(js, '\n'))
			checkGolden(t, name+".lint.json", lintJSONGolden(t, lint.Run(tr, lint.Options{})))
		})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "traces", "*.pvtt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			tr, err := trace.ReadAnyFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "traces-"+name+".lint.json", lintJSONGolden(t, lint.Run(tr, lint.Options{})))
		})
	}
}

func lintJSONGolden(t *testing.T, res *lint.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
