package perfvar

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"perfvar/internal/baseline"
	"perfvar/internal/callstack"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func smallFD4() FD4Config {
	cfg := DefaultFD4()
	cfg.Ranks = 32
	cfg.Iterations = 6
	cfg.InterruptRank = 20
	cfg.InterruptIteration = 3
	return cfg
}

func TestAnalyzePipeline(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection.Dominant.Name != "iteration" {
		t.Fatalf("dominant = %q", res.Selection.Dominant.Name)
	}
	if len(res.Analysis.Hotspots) == 0 {
		t.Fatal("no hotspots found")
	}
	top := res.Analysis.Hotspots[0].Segment
	if top.Rank != 20 || top.Index != 3 {
		t.Fatalf("top hotspot rank %d iter %d, want 20/3", top.Rank, top.Index)
	}
	if len(res.MPIFraction) != 20 {
		t.Fatalf("MPI fraction bins = %d", len(res.MPIFraction))
	}
}

func TestRefine(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := res.Refine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Matrix.RegionName != "specs_timestep" {
		t.Fatalf("refined region = %q", fine.Matrix.RegionName)
	}
	cfg := smallFD4()
	top := fine.Analysis.Hotspots[0].Segment
	if top.Rank != Rank(cfg.InterruptRank) || top.Index != cfg.InterruptedSegmentIndex() {
		t.Fatalf("fine hotspot rank %d idx %d, want %d/%d",
			top.Rank, top.Index, cfg.InterruptRank, cfg.InterruptedSegmentIndex())
	}
	// Refining the finest level fails cleanly.
	if _, err := fine.Refine(Options{}); err == nil {
		t.Fatal("refine past finest level succeeded")
	}
}

func TestAnalyzeWithExplicitDominant(t *testing.T) {
	tr := workloads.Fig3Trace()
	res, err := Analyze(tr, Options{DominantFunction: "calc"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.RegionName != "calc" {
		t.Fatalf("matrix region = %q", res.Matrix.RegionName)
	}
	if _, err := Analyze(tr, Options{DominantFunction: "nope"}); err == nil {
		t.Fatal("unknown dominant accepted")
	}
}

func TestAnalyzeWithNameSync(t *testing.T) {
	tr := workloads.Fig3Trace()
	res, err := Analyze(tr, Options{SyncPrefixes: []string{"MPI"}})
	if err != nil {
		t.Fatal(err)
	}
	// Same SOS-times as paradigm-based classification.
	if got := res.Matrix.PerRank[0][0].SOS(); got != 5*workloads.ToyStep {
		t.Fatalf("SOS = %d", got)
	}
	// A prefix matching nothing keeps sync inside the segments.
	res2, err := Analyze(tr, Options{SyncPrefixes: []string{"XYZ"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Matrix.PerRank[0][0].SOS(); got != 6*workloads.ToyStep {
		t.Fatalf("no-sync SOS = %d", got)
	}
}

func TestTraceFileRoundTripThroughFacade(t *testing.T) {
	tr := workloads.Fig2Trace()
	path := filepath.Join(t.TempDir(), "fig2.pvt")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != tr.Name || loaded.NumEvents() != tr.NumEvents() {
		t.Fatal("round trip mismatch")
	}
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestRenderingThroughFacade(t *testing.T) {
	tr := workloads.Fig3Trace()
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hm := res.Heatmap(RenderOptions{Width: 200, Height: 80})
	if hm.Bounds().Dx() != 200 {
		t.Fatal("heatmap size wrong")
	}
	tl := Timeline(tr, RenderOptions{Width: 200, Height: 80})
	if tl.Bounds().Dy() != 80 {
		t.Fatal("timeline size wrong")
	}
	if s := ANSI(hm, 40); !strings.Contains(s, "▀") {
		t.Fatal("ANSI render empty")
	}
	dir := t.TempDir()
	if err := SavePNG(filepath.Join(dir, "h.png"), hm); err != nil {
		t.Fatal(err)
	}
	if err := SaveSVG(filepath.Join(dir, "h.svg"), hm); err != nil {
		t.Fatal(err)
	}
}

func TestCounterHeatmapFacade(t *testing.T) {
	cfg := DefaultWRF()
	cfg.GridX, cfg.GridY, cfg.Steps = 4, 4, 10
	cfg.TrapRank = 9
	tr, err := GenerateWRF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := CounterHeatmap(tr, workloads.MicrotrapCounterName, RenderOptions{Width: 150, Height: 60})
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 150 {
		t.Fatal("size wrong")
	}
	if _, err := CounterHeatmap(tr, "nope", RenderOptions{}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestReportFromFacade(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Report().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Time-dominant function: iteration") {
		t.Fatalf("report:\n%s", buf.String())
	}
	buf.Reset()
	if err := res.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeErrorPaths(t *testing.T) {
	tr := &Trace{Name: "empty"}
	if _, err := Analyze(tr, Options{}); err == nil {
		t.Fatal("empty trace analyzed")
	}
}

func TestOptionsMPIFractionBins(t *testing.T) {
	tr := workloads.Fig3Trace()
	res, err := Analyze(tr, Options{MPIFractionBins: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MPIFraction != nil {
		t.Fatal("MPI fraction computed despite being disabled")
	}
	res, err = Analyze(tr, Options{MPIFractionBins: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MPIFraction) != 7 {
		t.Fatalf("bins = %d", len(res.MPIFraction))
	}
}

func TestSlowestIterationsTrace(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub := res.SlowestIterationsTrace(1)
	if err := sub.Validate(); err != nil {
		t.Fatalf("windowed trace invalid: %v", err)
	}
	// The slow iteration contains the interruption: re-analyzing the
	// window must flag rank 20 again.
	subRes, err := Analyze(sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(subRes.Analysis.Hotspots) == 0 ||
		subRes.Analysis.Hotspots[0].Segment.Rank != 20 {
		t.Fatalf("windowed analysis lost the hotspot: %+v", subRes.Analysis.Hotspots)
	}
	// The window is much shorter than the full run.
	_, fullEnd := tr.Span()
	f, l := sub.Span()
	if l-f >= fullEnd/2 {
		t.Fatalf("window (%d) not much shorter than run (%d)", l-f, fullEnd)
	}
	// k larger than the iteration count is clamped.
	all := res.SlowestIterationsTrace(10_000)
	if err := all.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Phase clustering separates the interrupted iteration.
	c := res.Phases(2)
	if c.K != 2 {
		t.Fatalf("K = %d", c.K)
	}
	slow := c.SlowestCluster()
	if got := c.Assign[20][3]; got != slow {
		t.Fatalf("interrupted iteration in cluster %d, want %d", got, slow)
	}
	auto := res.Phases(0)
	if auto.K < 1 {
		t.Fatalf("auto K = %d", auto.K)
	}

	// Breakdown of the hotspot names the SPECS sub-steps as the sink.
	top := res.Analysis.Hotspots[0].Segment
	entries, err := res.Breakdown(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || entries[0].Name != "specs_timestep" {
		t.Fatalf("breakdown = %+v", entries)
	}

	// Histogram renders.
	if img := res.Histogram(20, RenderOptions{Width: 200, Height: 80}); img.Bounds().Dx() != 200 {
		t.Fatal("histogram size")
	}

	// Function summary renders.
	if img := FunctionSummary(tr, 8, RenderOptions{Width: 300, Height: 150, Labels: true}); img.Bounds().Dy() != 150 {
		t.Fatal("summary size")
	}

	// Call tree exposes the nesting.
	tree, err := BuildCallTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Find("main", "iteration", "specs_timestep") == nil {
		t.Fatal("call path missing")
	}
}

func TestFacadeCompareAndClockfix(t *testing.T) {
	cfgA := smallFD4()
	trA, err := GenerateFD4(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := smallFD4()
	cfgB.InterruptDuration = 0 // the "fixed" run
	trB, err := GenerateFD4(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := Analyze(trA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Analyze(trB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareRuns(resA, resB)
	if cmp.SpeedupTotal <= 1 {
		t.Fatalf("fixed run not faster: %+v", cmp.SpeedupTotal)
	}
	best := cmp.MostImproved()
	if best.IterA != cfgA.InterruptIteration {
		t.Fatalf("most improved iteration = %d, want %d", best.IterA, cfgA.InterruptIteration)
	}

	// Clock correction on a clean trace is a no-op in violation terms.
	fixed, info, err := CorrectClocks(trA, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if info.ViolationsBefore != 0 || info.ViolationsAfter != 0 {
		t.Fatalf("clean trace reported violations: %+v", info)
	}
	if err := fixed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTextArchiveThroughFacade(t *testing.T) {
	tr := workloads.Fig3Trace()
	path := filepath.Join(t.TempDir(), "fig3.pvtt")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEvents() != tr.NumEvents() {
		t.Fatal("text round trip through facade lost events")
	}
	res, err := Analyze(loaded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.PerRank[0][0].SOS() != 5*workloads.ToyStep {
		t.Fatal("analysis of text-loaded trace differs")
	}
}

func TestWaitCausers(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	causers := res.WaitCausers()
	if len(causers) == 0 || causers[0].Rank != 20 {
		t.Fatalf("WaitCausers = %+v, want rank 20 first", causers)
	}
	// The interruption (40ms on 31 peers) dominates: > 1s aggregate.
	if causers[0].CausedWait < 31*35*Millisecond {
		t.Fatalf("caused wait = %d, want ≳ 31×40ms", causers[0].CausedWait)
	}
}

func TestDirArchiveThroughFacade(t *testing.T) {
	tr := workloads.Fig3Trace()
	dir := filepath.Join(t.TempDir(), "arch")
	if err := SaveTraceDir(dir, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEvents() != tr.NumEvents() {
		t.Fatal("dir archive lost events")
	}
}

func TestRankTrendsThroughFacade(t *testing.T) {
	cfg := DefaultCosmoSpecs()
	cfg.GridX, cfg.GridY, cfg.Steps = 4, 4, 10
	cfg.CloudCenterCol, cfg.CloudCenterRow = 1.4, 2.0
	tr, err := GenerateCosmoSpecs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	trends := res.RankTrends(0.9)
	if len(trends) == 0 {
		t.Fatal("no trends")
	}
	_, hottest := cfg.CloudRanks()
	if trends[0].Rank != Rank(hottest) {
		t.Fatalf("steepest = %+v, want rank %d", trends[0], hottest)
	}
}

func TestPerIterationOptionThroughFacade(t *testing.T) {
	// Leak run (global trend) plus an injected interruption would be the
	// full scenario; here it suffices that the option is honored: on a
	// trending run, per-iteration scoring reports far fewer hotspots than
	// global scoring.
	tr, err := GenerateLeak(DefaultLeak())
	if err != nil {
		t.Fatal(err)
	}
	global, err := Analyze(tr, Options{ZThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	perIter, err := Analyze(tr, Options{ZThreshold: 2, PerIteration: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(perIter.Analysis.Hotspots) >= len(global.Analysis.Hotspots) && len(global.Analysis.Hotspots) > 0 {
		t.Fatalf("per-iteration (%d) not fewer than global (%d)",
			len(perIter.Analysis.Hotspots), len(global.Analysis.Hotspots))
	}
}

func TestConcatTracesThroughFacade(t *testing.T) {
	a := workloads.Fig3Trace()
	b := workloads.Fig3Trace()
	out, err := ConcatTraces(a, b, 5*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// After stitching, main recurs (once per phase) and becomes an
	// eligible candidate itself; pin the segmentation to "a" to compare
	// iterations across the phases.
	res, err := Analyze(out, Options{DominantFunction: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.Iterations() != 6 {
		t.Fatalf("iterations = %d, want 6", res.Matrix.Iterations())
	}
}

func TestHeatmapByIndexFacade(t *testing.T) {
	tr := workloads.Fig3Trace()
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := res.HeatmapByIndex(RenderOptions{Width: 150, Height: 60})
	if img.Bounds().Dx() != 150 {
		t.Fatal("size wrong")
	}
}

func TestBuilderFacade(t *testing.T) {
	b := NewTraceBuilder("built", 1)
	f := b.Region("f", ParadigmUser, RoleFunction)
	b.Enter(0, 0, f)
	b.Leave(0, 10, f)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Name != "built" {
		t.Fatalf("name = %q", tr.Name)
	}
}

func TestComparisonHeatmapFacade(t *testing.T) {
	tr := workloads.Fig3Trace()
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := ComparisonHeatmap(res, res, RenderOptions{Width: 200, Height: 120})
	if img.Bounds().Dy() != 120 {
		t.Fatal("size wrong")
	}
}

func TestOnlineAndStreamingFacade(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.pvt")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	header, err := ReadTraceHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(header.Procs) != 32 {
		t.Fatalf("header procs = %d", len(header.Procs))
	}
	analyzer, err := OnlineConfig{Ranks: len(header.Procs), Regions: header.Regions, DominantName: "iteration"}.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (OnlineConfig{Ranks: 1, Regions: header.Regions, DominantName: "nope"}).NewAnalyzer(); err == nil {
		t.Fatal("unknown dominant accepted")
	}
	if _, err := StreamTrace(path, func(rank Rank, ev Event) error {
		_, err := analyzer.Feed(rank, ev)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(analyzer.Alerts()) == 0 {
		t.Fatal("streamed analysis produced no alerts")
	}
	// Early stop path.
	n := 0
	if _, err := StreamTrace(path, func(Rank, Event) error {
		n++
		return ErrStopStream
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("stopped after %d events", n)
	}
}

// Regression: non-positive or tiny bin counts reaching Result.Histogram
// (e.g. from a hostile HTTP query parameter) must render a sane default
// instead of panicking in stats.Histogram.
func TestHistogramBinEdgeCases(t *testing.T) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bins := range []int{-1, 0, 1} {
		img := res.Histogram(bins, RenderOptions{Width: 200, Height: 80})
		if img == nil || img.Bounds().Empty() {
			t.Fatalf("Histogram(bins=%d) returned an empty image", bins)
		}
	}
}

// TestUndefinedRegionReplayErrors: every profile and call-tree entry
// point over an in-memory trace whose enter/leave names an undefined
// region reports the replay's "undefined region" error instead of
// indexing past the region table, and the function summary renders its
// blank canvas.
func TestUndefinedRegionReplayErrors(t *testing.T) {
	tr := trace.New("undefined", 2)
	main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, main))
	tr.Append(0, trace.Leave(10, main))
	tr.Append(1, trace.Enter(0, main))
	tr.Append(1, trace.Enter(2, 99))
	tr.Append(1, trace.Leave(4, 99))
	tr.Append(1, trace.Leave(10, main))
	const want = "callstack: rank 1 event 1: undefined region 99"
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"callstack.ProfileOf", func() error { _, err := callstack.ProfileOf(context.Background(), tr); return err }},
		{"callstack.CallTreeOf", func() error { _, err := callstack.CallTreeOf(tr); return err }},
		{"BuildCallTree", func() error { _, err := BuildCallTree(tr); return err }},
		{"baseline.RankProfiles", func() error { _, err := baseline.RankProfiles(tr); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil || err.Error() != want {
				t.Fatalf("error = %v, want %q", err, want)
			}
		})
	}
	t.Run("FunctionSummary", func(t *testing.T) {
		blank := FunctionSummary(trace.New("empty", 1), 10, RenderOptions{})
		if got := FunctionSummary(tr, 10, RenderOptions{}); !bytes.Equal(got.Pix, blank.Pix) {
			t.Fatal("function summary of an unreplayable trace is not the blank canvas")
		}
	})
}
