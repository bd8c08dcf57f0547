package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/phases"
	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
	"perfvar/internal/workloads"
)

func fig3Report(t *testing.T) *Report {
	t.Helper()
	tr := workloads.Fig3Trace()
	sel, err := dominant.Select(tr, dominant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := segment.Compute(tr, sel.Dominant.Region, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := imbalance.Analyze(m, imbalance.Options{ZThreshold: 1.0, MinRelDeviation: -1})
	return traceReport(tr, sel, a, imbalance.MPIFractionTimeline(tr, 5))
}

func TestWriteText(t *testing.T) {
	r := fig3Report(t)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fig3-toy",
		"Time-dominant function: a",
		"invocations: 9",
		"SOS-time distribution",
		"MPI fraction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextBalancedRun(t *testing.T) {
	tr := workloads.Fig3Trace()
	sel, err := dominant.Select(tr, dominant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := segment.Compute(tr, sel.Dominant.Region, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Absurd threshold: no hotspots.
	a := imbalance.Analyze(m, imbalance.Options{ZThreshold: 1e12})
	var buf bytes.Buffer
	if err := traceReport(tr, sel, a, nil).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No hotspots") {
		t.Fatalf("balanced report:\n%s", buf.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := fig3Report(t)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded["dominantFunction"] != "a" {
		t.Errorf("dominantFunction = %v", decoded["dominantFunction"])
	}
	if decoded["ranks"].(float64) != 3 {
		t.Errorf("ranks = %v", decoded["ranks"])
	}
	if _, ok := decoded["hotspots"]; !ok {
		t.Error("hotspots missing")
	}
}

func TestWriteJSONHandlesInfScores(t *testing.T) {
	// Hand-build an analysis with an +Inf score (constant data, one
	// deviation) and make sure JSON encoding does not fail.
	m := &segment.Matrix{PerRank: [][]segment.Segment{
		{{Rank: 0, Start: 0, End: 100}, {Rank: 0, Index: 1, Start: 100, End: 200}},
	}}
	a := imbalance.Analyze(m, imbalance.Options{})
	a.Hotspots = []imbalance.Hotspot{{Segment: m.PerRank[0][0], Score: math.Inf(1)}}
	r := &Report{TraceName: "x", Analysis: a, Selection: dominant.Selection{}}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with Inf score: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("output is not valid JSON")
	}
}

func TestTrendLineAppears(t *testing.T) {
	// Build a slowing-down matrix directly.
	var segs []segment.Segment
	var start trace.Time
	for i := 0; i < 10; i++ {
		d := trace.Duration(100 + 30*i)
		segs = append(segs, segment.Segment{Rank: 0, Index: i, Start: start, End: start + d})
		start += d
	}
	m := &segment.Matrix{RegionName: "f", PerRank: [][]segment.Segment{segs}}
	a := imbalance.Analyze(m, imbalance.Options{})
	if !a.Trend.Increasing {
		t.Fatal("trend not detected")
	}
	r := &Report{TraceName: "t", Analysis: a}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TREND") {
		t.Fatalf("trend missing:\n%s", buf.String())
	}
}

func TestWriteMarkdown(t *testing.T) {
	r := fig3Report(t)
	var buf bytes.Buffer
	if err := r.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# perfvar analysis: fig3-toy",
		"time-dominant function: **a**",
		"## Hotspots",
		"| # | rank |",
		"## MPI fraction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMarkdownBalanced(t *testing.T) {
	tr := workloads.Fig3Trace()
	sel, err := dominant.Select(tr, dominant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := segment.Compute(tr, sel.Dominant.Region, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := imbalance.Analyze(m, imbalance.Options{ZThreshold: 1e12})
	var buf bytes.Buffer
	if err := traceReport(tr, sel, a, nil).WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No hotspots") {
		t.Fatalf("markdown:\n%s", buf.String())
	}
}

func TestWritePhases(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := segment.Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := phases.Cluster(m, 2)
	var buf bytes.Buffer
	if err := WritePhases(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Computation phases (k=2)") {
		t.Fatalf("phases output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "phase 0") || !strings.Contains(buf.String(), "phase 1") {
		t.Fatalf("phases output:\n%s", buf.String())
	}
}

func TestWriteHTML(t *testing.T) {
	r := fig3Report(t)
	tr := workloads.Fig3Trace()
	res, err := segment.Compute(tr, mustRegionID(t, tr, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	img := visHeatmap(tr, res)
	var buf bytes.Buffer
	if err := r.WriteHTML(&buf, img); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "perfvar analysis: fig3-toy",
		"data:image/png;base64,", "dominant function", "Hotspots",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func mustRegionID(t *testing.T, tr *trace.Trace, name string) trace.RegionID {
	t.Helper()
	r, ok := tr.RegionByName(name)
	if !ok {
		t.Fatalf("region %q missing", name)
	}
	return r.ID
}

func visHeatmap(tr *trace.Trace, m *segment.Matrix) *vis.Image {
	first, last := tr.Span()
	return vis.SOSHeatmapSpan(first, last, m, vis.RenderOptions{Width: 120, Height: 60})
}

// traceReport assembles the report of an analysis of tr.
func traceReport(tr *trace.Trace, sel dominant.Selection, a *imbalance.Analysis, mpiFraction []float64) *Report {
	return &Report{
		TraceName:   tr.Name,
		Ranks:       tr.NumRanks(),
		Events:      tr.NumEvents(),
		Selection:   sel,
		Analysis:    a,
		MPIFraction: mpiFraction,
	}
}
