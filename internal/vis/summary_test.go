package vis

import (
	"image"
	"os"
	"path/filepath"
	"testing"

	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func countNonBackground(img *Image, r image.Rectangle) int {
	n := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			if img.RGBAAt(x, y) != ColorBackground {
				n++
			}
		}
	}
	return n
}

func TestFunctionSummary(t *testing.T) {
	tr := workloads.Fig2Trace()
	img := FunctionSummary(tr, 10, RenderOptions{Width: 400, Height: 200, Labels: true, Title: "SUMMARY"})
	if img.Bounds().Dx() != 400 {
		t.Fatal("size wrong")
	}
	if countNonBackground(img, img.Bounds()) < 100 {
		t.Fatal("summary mostly empty")
	}
	// topN limiting must not panic and still draw.
	img2 := FunctionSummary(tr, 1, RenderOptions{Width: 200, Height: 60})
	if countNonBackground(img2, img2.Bounds()) == 0 {
		t.Fatal("topN=1 drew nothing")
	}
}

func TestFunctionSummaryDegenerate(t *testing.T) {
	// Broken trace: blank canvas, no panic.
	bad := trace.New("bad", 1)
	f := bad.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	bad.Append(0, trace.Enter(0, f))
	img := FunctionSummary(bad, 5, RenderOptions{Width: 100, Height: 50})
	if countNonBackground(img, img.Bounds()) != 0 {
		t.Fatal("broken trace drew content")
	}
	// Empty trace.
	img = FunctionSummary(trace.New("e", 0), 5, RenderOptions{Width: 100, Height: 50})
	if countNonBackground(img, img.Bounds()) != 0 {
		t.Fatal("empty trace drew content")
	}
}

func TestSOSHistogram(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := segment.Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := SOSHistogram(m, 10, RenderOptions{Width: 300, Height: 120, Labels: true, Title: "SOS DIST"})
	if countNonBackground(img, img.Bounds()) < 20 {
		t.Fatal("histogram mostly empty")
	}
	// Default bins.
	img = SOSHistogram(m, 0, RenderOptions{Width: 300, Height: 120})
	if countNonBackground(img, img.Bounds()) == 0 {
		t.Fatal("default-bin histogram empty")
	}
	// Empty matrix: blank.
	img = SOSHistogram(&segment.Matrix{}, 10, RenderOptions{Width: 100, Height: 40})
	if countNonBackground(img, img.Bounds()) != 0 {
		t.Fatal("empty matrix drew content")
	}
}

func TestSOSHistogramConstantValues(t *testing.T) {
	m := &segment.Matrix{PerRank: [][]segment.Segment{{
		{Rank: 0, Start: 0, End: 10},
		{Rank: 0, Index: 1, Start: 10, End: 20},
	}}}
	img := SOSHistogram(m, 5, RenderOptions{Width: 100, Height: 40})
	if countNonBackground(img, img.Bounds()) == 0 {
		t.Fatal("constant-value histogram empty")
	}
}

func TestLineChart(t *testing.T) {
	series := [][]float64{
		{0.1, 0.2, 0.4, 0.5, 0.8},
		{0.3, 0.3, 0.3, 0.3, 0.3},
	}
	img := LineChart(series, 0, 1, RenderOptions{Width: 300, Height: 120, Labels: true, Title: "MPI FRACTION"})
	if img.Bounds().Dx() != 300 {
		t.Fatal("size wrong")
	}
	if countNonBackground(img, img.Bounds()) < 50 {
		t.Fatal("line chart mostly empty")
	}
	// Auto-scaling path.
	img = LineChart([][]float64{{5, 10, 3, 8}}, 0, 0, RenderOptions{Width: 200, Height: 80})
	if countNonBackground(img, img.Bounds()) == 0 {
		t.Fatal("auto-scaled chart empty")
	}
	// Degenerate inputs: no panic, blank chart.
	img = LineChart(nil, 0, 0, RenderOptions{Width: 100, Height: 40})
	_ = LineChart([][]float64{{1}}, 0, 0, RenderOptions{Width: 100, Height: 40})
	// Constant series with equal lo/hi.
	_ = LineChart([][]float64{{2, 2, 2}}, 2, 2, RenderOptions{Width: 100, Height: 40})
}

func TestDrawLineEndpoints(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 20, 20))
	fill(img, img.Bounds(), ColorBackground)
	c := ColorMPI
	drawLine(img, 2, 2, 17, 9, c)
	if img.RGBAAt(2, 2) != c || img.RGBAAt(17, 9) != c {
		t.Fatal("line endpoints not drawn")
	}
	drawLine(img, 5, 15, 5, 15, c) // single point
	if img.RGBAAt(5, 15) != c {
		t.Fatal("degenerate line not drawn")
	}
	drawLine(img, 10, 18, 3, 4, c) // reversed direction
	if img.RGBAAt(10, 18) != c || img.RGBAAt(3, 4) != c {
		t.Fatal("reversed line endpoints not drawn")
	}
}

func TestComparisonHeatmap(t *testing.T) {
	trA := workloads.Fig3Trace()
	rA, _ := trA.RegionByName("a")
	mA, err := segment.Compute(trA, rA.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := trA.Span()
	run := ComparedRun{Name: trA.Name, First: first, Last: last, Matrix: mA}
	img := ComparisonHeatmap(run, run, RenderOptions{Width: 300, Height: 160, Labels: true})
	if img.Bounds().Dy() != 160 {
		t.Fatal("size wrong")
	}
	// Both halves drawn: non-background pixels above and below the split.
	if countNonBackground(img, image.Rect(0, 0, 300, 80)) < 50 {
		t.Fatal("top half empty")
	}
	if countNonBackground(img, image.Rect(0, 80, 300, 160)) < 50 {
		t.Fatal("bottom half empty")
	}
	// Shared scale: the same segment renders the same color in both
	// halves (sample a point inside the first iteration of rank 0).
	topPix := img.RGBAAt(80, 15)
	bottomPix := img.RGBAAt(80, 95)
	if topPix != bottomPix {
		t.Fatalf("shared scale violated: %+v vs %+v", topPix, bottomPix)
	}
}

func TestSOSHeatmapByIndex(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := segment.Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := Normalizer{Lo: 1e6, Hi: 5e6}
	img := SOSHeatmapByIndex(m, RenderOptions{Width: 300, Height: 90, Norm: &n, Labels: true, Title: "BY INDEX"})
	if img.Bounds().Dx() != 300 {
		t.Fatal("size wrong")
	}
	// Equal-width columns: iteration 0 spans the first third. Rank 0 hot
	// (SOS 5), rank 2 cold (SOS 1).
	hot := img.RGBAAt(60, 20)  // rank 0 row inside the labeled plot area
	cold := img.RGBAAt(60, 70) // rank 2 row
	if !(hot.R > hot.B) {
		t.Errorf("rank 0 not hot: %+v", hot)
	}
	if !(cold.B > cold.R) {
		t.Errorf("rank 2 not cold: %+v", cold)
	}
	// Empty matrix: blank, no panic.
	blank := SOSHeatmapByIndex(&segment.Matrix{}, RenderOptions{Width: 60, Height: 30})
	if countNonBackground(blank, blank.Bounds()) != 0 {
		t.Error("empty matrix drew content")
	}
}

func TestSaveErrorsOnMissingDir(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 4, 4))
	bad := filepath.Join(t.TempDir(), "nodir", "x.png")
	if err := SavePNG(bad, img); err == nil {
		t.Fatal("SavePNG into missing dir succeeded")
	}
	if err := SaveSVG(filepath.Join(t.TempDir(), "nodir", "x.svg"), img); err == nil {
		t.Fatal("SaveSVG into missing dir succeeded")
	}
}

func TestSaveRoundTripFiles(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 8, 8))
	fill(img, img.Bounds(), ColorMPI)
	dir := t.TempDir()
	if err := SavePNG(filepath.Join(dir, "a.png"), img); err != nil {
		t.Fatal(err)
	}
	if err := SaveSVG(filepath.Join(dir, "a.svg"), img); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.png", "a.svg"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v (size %d)", name, err, fi.Size())
		}
	}
}
