package perfvar

// Streaming-vs-materialized equivalence: the single-pass streaming engine
// must produce byte-identical results to the in-memory pipeline on every
// archive layout and at every worker count. Each case round-trips a
// workload through the PVTR file, directory-archive, and in-memory
// archive forms, analyzes each via AnalyzeSource, and compares every
// result component — selection, matrix, analysis, MPI fraction, report
// JSON, heatmap pixels — against Analyze(LoadTrace(...)).

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func streamEquivTraces(t *testing.T) map[string]*Trace {
	t.Helper()
	cosmo, err := workloads.CosmoSpecs(workloads.DefaultCosmoSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Trace{
		"fig2":  workloads.Fig2Trace(),
		"fig3":  workloads.Fig3Trace(),
		"cosmo": cosmo,
	}
}

// assertResultsEqual compares every component of two results, plus their
// serialized report bytes and rendered heatmap pixels.
func assertResultsEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Selection, got.Selection) {
		t.Errorf("%s: selections differ", label)
	}
	if !reflect.DeepEqual(want.Matrix, got.Matrix) {
		t.Errorf("%s: segment matrices differ", label)
	}
	if !reflect.DeepEqual(want.Analysis, got.Analysis) {
		t.Errorf("%s: analyses differ", label)
	}
	if !reflect.DeepEqual(want.MPIFraction, got.MPIFraction) {
		t.Errorf("%s: MPI fractions differ:\n want %v\n got  %v", label, want.MPIFraction, got.MPIFraction)
	}
	var wantJSON, gotJSON bytes.Buffer
	if err := want.Report().WriteJSON(&wantJSON); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := got.Report().WriteJSON(&gotJSON); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Errorf("%s: report JSON differs:\n want %s\n got  %s", label, wantJSON.Bytes(), gotJSON.Bytes())
	}
	ro := RenderOptions{Width: 300, Height: 160, Labels: true}
	if !bytes.Equal(want.Heatmap(ro).Pix, got.Heatmap(ro).Pix) {
		t.Errorf("%s: heatmap pixels differ", label)
	}
}

func TestStreamingEngineEquivalence(t *testing.T) {
	for name, tr := range streamEquivTraces(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			pvtrPath := filepath.Join(dir, name+".pvt")
			if err := SaveTrace(pvtrPath, tr); err != nil {
				t.Fatal(err)
			}
			archiveDir := filepath.Join(dir, name+".pvtd")
			if err := SaveTraceDir(archiveDir, tr); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(pvtrPath)
			if err != nil {
				t.Fatal(err)
			}

			for _, jobs := range []int{1, 8} {
				loaded, err := LoadTrace(pvtrPath)
				if err != nil {
					t.Fatal(err)
				}
				want := atJobs(jobs, func() *Result {
					res, err := Analyze(loaded, Options{})
					if err != nil {
						t.Fatal(err)
					}
					return res
				})
				if want.Engine != EngineMaterialized {
					t.Fatalf("Analyze engine = %q, want %q", want.Engine, EngineMaterialized)
				}

				cases := map[string]Source{
					"file":    FileSource(pvtrPath),
					"dir":     FileSource(archiveDir),
					"archive": ArchiveSource(raw),
				}
				for label, src := range cases {
					got := atJobs(jobs, func() *Result {
						res, err := AnalyzeSource(context.Background(), src, Options{})
						if err != nil {
							t.Fatal(err)
						}
						return res
					})
					if got.Engine != EngineStream {
						t.Errorf("jobs=%d %s: engine = %q, want %q", jobs, label, got.Engine, EngineStream)
					}
					if got.Trace != nil {
						t.Errorf("jobs=%d %s: streaming result retains a trace", jobs, label)
					}
					assertResultsEqual(t, label, want, got)
				}
			}
		})
	}
}

// TestStreamingTextFallback: pvtt archives have no per-rank framing, so
// FileSource materializes them — the result must match Analyze and carry
// the materialized engine tag (and a usable Trace).
func TestStreamingTextFallback(t *testing.T) {
	res, err := AnalyzeSource(context.Background(), FileSource(filepath.Join("testdata", "traces", "fig2.pvtt")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineMaterialized {
		t.Fatalf("engine = %q, want %q", res.Engine, EngineMaterialized)
	}
	if res.Trace == nil {
		t.Fatal("pvtt source lost its materialized trace")
	}
	tr, err := LoadTrace(filepath.Join("testdata", "traces", "fig2.pvtt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "pvtt", want, res)
}

// TestStreamingWorkloadSource: generator-backed sources run the
// in-memory path; TraceSource drives Analyze itself.
func TestStreamingWorkloadSource(t *testing.T) {
	src := WorkloadSource(func() (*Trace, error) { return workloads.Fig2Trace(), nil })
	res, err := AnalyzeSource(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineMaterialized || res.Trace == nil {
		t.Fatalf("engine = %q, trace = %v", res.Engine, res.Trace != nil)
	}
	want, err := Analyze(workloads.Fig2Trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "workload", want, res)
}

// assertViewsEqual compares the views that stream a result's source
// again: the causality JSON and the top hotspot's breakdown.
func assertViewsEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	wantCaus, err := want.Causality()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	gotCaus, err := got.Causality()
	if err != nil {
		t.Fatalf("%s: Causality: %v", label, err)
	}
	wantJSON, err := json.Marshal(wantCaus)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(gotCaus)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("%s: causality JSON differs:\n want %s\n got  %s", label, wantJSON, gotJSON)
	}
	if len(want.Analysis.Hotspots) == 0 {
		t.Fatalf("%s: no hotspot to break down", label)
	}
	top := want.Analysis.Hotspots[0].Segment
	wantEntries, err := want.Breakdown(top)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	gotEntries, err := got.Breakdown(top)
	if err != nil {
		t.Fatalf("%s: Breakdown: %v", label, err)
	}
	if !reflect.DeepEqual(wantEntries, gotEntries) {
		t.Errorf("%s: breakdown differs:\n want %+v\n got  %+v", label, wantEntries, gotEntries)
	}
}

// TestStreamingResultGuards: Causality and Breakdown stream a streaming
// result's source again and must equal the materialized result's views
// on every archive layout; Refine must re-stream the retained source;
// SlowestIterationsTrace still needs a materialized trace.
func TestStreamingResultGuards(t *testing.T) {
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 16
	cfg.InterruptRank = 3
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fd4.pvt")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	archiveDir := filepath.Join(dir, "fd4.pvtd")
	if err := SaveTraceDir(archiveDir, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	matRes, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		src   Source
	}{{"file", FileSource(path)}, {"dir", FileSource(archiveDir)}, {"archive", ArchiveSource(raw)}} {
		res, err := AnalyzeSource(context.Background(), c.src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace != nil {
			t.Fatalf("%s: expected a streaming result", c.label)
		}
		assertViewsEqual(t, c.label, matRes, res)
		if sub := res.SlowestIterationsTrace(2); sub != nil {
			t.Errorf("%s: SlowestIterationsTrace on a streaming result should be nil", c.label)
		}
	}

	res, err := AnalyzeSource(context.Background(), FileSource(path), Options{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := res.Refine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRefined, err := matRes.Refine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRefined.Matrix, refined.Matrix) {
		t.Error("refined matrices differ between streaming and materialized paths")
	}
}

// TestLoadTraceOpenOnce: the file-or-directory decision must bind to the
// opened handle. Decoding via loadOpenTrace with the path swapped to a
// directory after the open must still decode the file's content.
func TestLoadTraceOpenOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.pvt")
	tr := workloads.Fig2Trace()
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Swap the path out from under the handle: remove the file and put a
	// directory (with a valid anchor, so a stat-then-reopen bug would
	// "succeed" with the wrong content) in its place.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	ocfg := workloads.DefaultFD4()
	ocfg.Ranks = 4
	ocfg.InterruptRank = 1
	other, err := workloads.FD4(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTraceDir(path, other); err != nil {
		t.Fatal(err)
	}
	got, err := loadOpenTrace(f, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumEvents() != tr.NumEvents() {
		t.Fatalf("decoded %q (%d events) — the swapped directory, not the opened file (%q, %d events)",
			got.Name, got.NumEvents(), tr.Name, tr.NumEvents())
	}
}

// TestRankStreamsMatchMaterialized: the low-level per-rank streams must
// replay the exact event sequences of the decoded trace, repeatably.
func TestRankStreamsMatchMaterialized(t *testing.T) {
	tr := workloads.Fig3Trace()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	rs, err := trace.OpenRankStreams(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRanks() != tr.NumRanks() {
		t.Fatalf("ranks = %d, want %d", rs.NumRanks(), tr.NumRanks())
	}
	for pass := 0; pass < 2; pass++ { // streams must be re-readable
		for rank := 0; rank < tr.NumRanks(); rank++ {
			var got []trace.Event
			if err := rs.StreamRank(rank, func(ev trace.Event) error {
				got = append(got, ev)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tr.Procs[rank].Events) {
				t.Fatalf("pass %d rank %d: streamed events differ", pass, rank)
			}
		}
	}
	// Early stop must end the stream without error.
	n := 0
	if err := rs.StreamRank(0, func(ev trace.Event) error {
		n++
		return trace.ErrStopStream
	}); err != nil || n != 1 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}
