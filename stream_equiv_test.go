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
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"perfvar/internal/core/imbalance"
	"perfvar/internal/lint"
	"perfvar/internal/trace"
	"perfvar/internal/trace/tracetest"
	"perfvar/internal/vis"
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

// assertResultsEqual compares every component of two results of tr,
// plus their serialized report bytes and rendered heatmap pixels. Both
// results answer Report and Heatmap through the same code, so got is
// also checked against tr itself: the report's trace fields against
// tr.Name, NumRanks and NumEvents, and the heatmap against
// vis.SOSHeatmapSpan over tr.Span().
func assertResultsEqual(t *testing.T, label string, tr *Trace, want, got *Result) {
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
	if rep := got.Report(); rep.TraceName != tr.Name || rep.Ranks != tr.NumRanks() || rep.Events != tr.NumEvents() {
		t.Errorf("%s: report trace fields (%q, %d ranks, %d events), want (%q, %d, %d)", label,
			rep.TraceName, rep.Ranks, rep.Events, tr.Name, tr.NumRanks(), tr.NumEvents())
	}
	first, last := tr.Span()
	if !bytes.Equal(vis.SOSHeatmapSpan(first, last, want.Matrix, ro).Pix, got.Heatmap(ro).Pix) {
		t.Errorf("%s: heatmap pixels differ from the trace-span rendering", label)
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
					assertResultsEqual(t, label, loaded, want, got)
				}
			}
		})
	}
}

// TestStreamingTextFallback: pvtt archives have no per-rank framing, so
// FileSource materializes them — the result must match Analyze and carry
// the materialized engine tag.
func TestStreamingTextFallback(t *testing.T) {
	res, err := AnalyzeSource(context.Background(), FileSource(filepath.Join("testdata", "traces", "fig2.pvtt")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineMaterialized {
		t.Fatalf("engine = %q, want %q", res.Engine, EngineMaterialized)
	}
	tr, err := LoadTrace(filepath.Join("testdata", "traces", "fig2.pvtt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "pvtt", tr, want, res)
}

// TestStreamingWorkloadSource: generator-backed sources run the
// in-memory path; TraceSource drives Analyze itself.
func TestStreamingWorkloadSource(t *testing.T) {
	src := WorkloadSource(func() (*Trace, error) { return workloads.Fig2Trace(), nil })
	res, err := AnalyzeSource(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineMaterialized {
		t.Fatalf("engine = %q, want %q", res.Engine, EngineMaterialized)
	}
	tr := workloads.Fig2Trace()
	want, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "workload", tr, want, res)
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
// on every archive layout; Refine must re-stream the retained source.
func TestStreamingResultGuards(t *testing.T) {
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 16
	cfg.InterruptRank = 3
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matRes, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srcs := entrySources(t, tr)[1:] // every archive layout
	for _, c := range srcs {
		res, err := AnalyzeSource(context.Background(), c.src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != EngineStream {
			t.Fatalf("%s: engine = %q, want %q", c.label, res.Engine, EngineStream)
		}
		assertViewsEqual(t, c.label, matRes, res)
	}

	res, err := AnalyzeSource(context.Background(), srcs[0].src, Options{})
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
// opened handle. Decoding via trace.ReadOpenFile, the loader behind
// LoadTrace, with the path swapped to a directory after the open must
// still decode the file's content.
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
	got, err := trace.ReadOpenFile(f)
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

// labeledSource is one entry path of a test trace.
type labeledSource struct {
	label string
	src   Source
}

// entrySources returns tr through every entry path: the in-memory trace,
// a PVTR file, a directory archive, and PVTR bytes in memory, the PVTR
// paths once as the writer's version 2 and once as version 1.
func entrySources(t *testing.T, tr *Trace) []labeledSource {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.pvt")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	archiveDir := filepath.Join(dir, "run.pvtd")
	if err := SaveTraceDir(archiveDir, tr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := tracetest.V1(raw)
	if err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(dir, "run-v1.pvt")
	if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	return []labeledSource{
		{"trace", TraceSource(tr)},
		{"file", FileSource(path)},
		{"dir", FileSource(archiveDir)},
		{"archive", ArchiveSource(raw)},
		{"file v1", FileSource(v1Path)},
		{"archive v1", ArchiveSource(v1)},
	}
}

// restore round-trips res through the disk-tier encoding.
func restore(t *testing.T, res *Result) *Result {
	t.Helper()
	var buf bytes.Buffer
	if err := res.EncodeStored(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeStoredResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestComparisonHeatmapAnySource: the comparison view renders from each
// result's tallied name and span, so streamed and restored results give
// the image of the in-memory trace's result.
func TestComparisonHeatmapAnySource(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	ro := RenderOptions{Width: 300, Height: 160, Labels: true}
	var want *Image
	for _, c := range entrySources(t, tr) {
		res, err := AnalyzeSource(context.Background(), c.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if want == nil {
			want = ComparisonHeatmap(res, res, ro)
		}
		if got := ComparisonHeatmap(res, res, ro); !bytes.Equal(want.Pix, got.Pix) {
			t.Errorf("%s: comparison heatmap differs from the in-memory trace's", c.label)
		}
		restored := restore(t, res)
		if got := ComparisonHeatmap(restored, restored, ro); !bytes.Equal(want.Pix, got.Pix) {
			t.Errorf("%s restored: comparison heatmap differs from the in-memory trace's", c.label)
		}
	}
}

// TestSlowestIterationsTraceEquivalence: the k slowest iterations are
// streamed again from the result's source; every entry path, and a
// generator that never materializes, must give the bytes of Trace.Window
// over the materialized trace.
func TestSlowestIterationsTraceEquivalence(t *testing.T) {
	fd4, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	cfg := synthTestConfig()
	var archive bytes.Buffer
	if err := cfg.WriteArchive(&archive); err != nil {
		t.Fatal(err)
	}
	synth, err := trace.ReadAny(bytes.NewReader(archive.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		tr    *Trace
		extra []labeledSource
	}{
		{"fd4", fd4, nil},
		{"synthetic", synth, []labeledSource{{"synthetic", SyntheticSource(cfg.Header(), cfg.StreamRank)}}},
	} {
		t.Run(w.name, func(t *testing.T) {
			ref, err := Analyze(w.tr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			iters := append([]imbalance.IterationStats(nil), ref.Analysis.Iterations...)
			sort.Slice(iters, func(i, j int) bool { return iters[i].MaxSOS > iters[j].MaxSOS })
			for _, k := range []int{0, 1, 3, len(iters)} {
				// The oracle: Trace.Window over the span of the k slowest
				// iterations' segments; no iteration keeps the definitions.
				want := w.tr.Transform(func(Rank, []Event) []Event { return nil })
				if k > 0 {
					first := ref.Matrix.Column(iters[0].Index)[0]
					from, to := first.Start, first.End
					for _, is := range iters[:k] {
						for _, seg := range ref.Matrix.Column(is.Index) {
							from, to = min(from, seg.Start), max(to, seg.End)
						}
					}
					want = w.tr.Window(from, to)
				}
				var wantBytes bytes.Buffer
				if err := trace.Write(&wantBytes, want); err != nil {
					t.Fatal(err)
				}
				for _, c := range append(entrySources(t, w.tr), w.extra...) {
					res, err := AnalyzeSource(context.Background(), c.src, Options{})
					if err != nil {
						t.Fatalf("%s: %v", c.label, err)
					}
					sub, err := res.SlowestIterationsTrace(k)
					if err != nil {
						t.Fatalf("%s k=%d: %v", c.label, k, err)
					}
					var got bytes.Buffer
					if err := trace.Write(&got, sub); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantBytes.Bytes(), got.Bytes()) {
						t.Errorf("%s k=%d: sub-trace differs from Trace.Window (%d vs %d bytes)",
							c.label, k, got.Len(), wantBytes.Len())
					}
				}
			}
			if _, err := restore(t, ref).SlowestIterationsTrace(1); !errors.Is(err, ErrNoTrace) {
				t.Fatalf("restored result: err = %v, want ErrNoTrace", err)
			}
		})
	}
}

// TestIndexedArchiveBlockFaultIsFormatError: a corrupt event in a
// version-2 archive passes the rank index and fails in its rank's own
// decode, mid-pass; the engine still reports it as a format error (400
// bad_archive in perfvard), not as a selection failure.
func TestIndexedArchiveBlockFaultIsFormatError(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const rank = 5
	entry := len(data) - 8*tr.NumRanks() + 8*rank
	off := binary.LittleEndian.Uint64(data[entry:])
	_, n := binary.Uvarint(data[off:])
	data[int(off)+n] = 0xEE // rank 5's first event kind
	path := filepath.Join(t.TempDir(), "bad.pvt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{ArchiveSource(data), FileSource(path)} {
		_, err := AnalyzeSource(context.Background(), src, Options{})
		if !errors.Is(err, trace.ErrFormat) || strings.HasPrefix(err.Error(), "dominant:") || !strings.Contains(err.Error(), "rank 5 event 0") {
			t.Fatalf("err = %v, want rank 5's ErrFormat", err)
		}
	}
}

// Property: the entry paths hand the per-rank pass its events in
// different runs — a trace as one run of its own events, a PVTR archive
// and a directory archive as decoded runs, a generator's events gathered
// by the pass's per-event adapter — and on random well-nested traces
// (tracetest.Nested) all four give byte-identical report JSON and equal
// lint results, with the lint run fused into the pass and with a
// candidate budget small enough to evict into the fallback pass.
func TestEntryPathsReportBytesProperty(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		tr := tracetest.Nested(seed, 1+int(seed%5))
		dir := filepath.Join(t.TempDir(), "nested.pvtd")
		if err := SaveTraceDir(dir, tr); err != nil {
			t.Fatal(err)
		}
		sources := []struct {
			name string
			src  Source
		}{
			{"trace", TraceSource(tr)},
			{"archive", ArchiveSource(pvtrBytes(t, tr))},
			{"directory", FileSource(dir)},
			{"synthetic", SyntheticSource(tr.Header(), tr.StreamRank)},
		}
		for _, opts := range []Options{{}, {Lint: true}, {CandidateSegmentBudget: 2}} {
			var want []byte
			var wantLint *lint.Result
			for i, s := range sources {
				res, err := AnalyzeSource(ctx, s.src, opts)
				if err != nil {
					t.Fatalf("seed %d %s %+v: %v", seed, s.name, opts, err)
				}
				var js bytes.Buffer
				if err := res.Report().WriteJSON(&js); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want, wantLint = js.Bytes(), res.Lint
					continue
				}
				if !bytes.Equal(js.Bytes(), want) {
					t.Fatalf("seed %d %s %+v: report JSON differs from the trace's:\n want %s\n got  %s", seed, s.name, opts, want, js.Bytes())
				}
				if !reflect.DeepEqual(res.Lint, wantLint) {
					t.Fatalf("seed %d %s %+v: lint result differs from the trace's", seed, s.name, opts)
				}
			}
		}
	}
}
