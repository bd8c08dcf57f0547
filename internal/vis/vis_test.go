package vis

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func TestColorMapEndpoints(t *testing.T) {
	m := CoolWarm()
	lo := m.At(0)
	hi := m.At(1)
	if lo.B <= lo.R {
		t.Errorf("cold end not blue: %+v", lo)
	}
	if hi.R <= hi.B {
		t.Errorf("hot end not red: %+v", hi)
	}
	if m.At(-5) != lo || m.At(7) != hi {
		t.Error("clamping broken")
	}
	if m.At(math.NaN()) != lo {
		t.Error("NaN not clamped to cold end")
	}
	if got := (ColorMap{}).At(0.5); got.A != 0xff {
		t.Errorf("empty map = %+v", got)
	}
	single := ColorMap{Stops: []color.RGBA{{R: 1, A: 0xff}}}
	if got := single.At(0.9); got.R != 1 {
		t.Errorf("single-stop map = %+v", got)
	}
}

// Property: color maps are continuous-ish and monotone in "redness" for
// CoolWarm (R non-decreasing, B non-increasing).
func TestCoolWarmMonotoneProperty(t *testing.T) {
	m := CoolWarm()
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		ca, cb := m.At(a), m.At(b)
		return cb.R >= ca.R-8 && cb.B <= ca.B+8 // small tolerance at stop joints
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizers(t *testing.T) {
	vals := []float64{0, 10, 20, 30, 100}
	n := LinearNormalizer(vals)
	if n.Norm(0) != 0 || n.Norm(100) != 1 || n.Norm(50) != 0.5 {
		t.Errorf("linear norm: %+v", n)
	}
	if n.Norm(-10) != 0 || n.Norm(1e9) != 1 {
		t.Error("clamping broken")
	}
	r := RobustNormalizer(vals)
	if r.Lo >= r.Hi {
		t.Errorf("robust norm degenerate: %+v", r)
	}
	deg := Normalizer{Lo: 5, Hi: 5}
	if deg.Norm(7) != 0 {
		t.Error("degenerate range should map to 0")
	}
}

func TestRegionColors(t *testing.T) {
	tr := trace.New("c", 1)
	u1 := tr.AddRegion("u1", trace.ParadigmUser, trace.RoleFunction)
	mpi := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
	omp := tr.AddRegion("omp", trace.ParadigmOpenMP, trace.RoleBarrier)
	io := tr.AddRegion("io", trace.ParadigmIO, trace.RoleFileIO)
	sys := tr.AddRegion("sys", trace.ParadigmSystem, trace.RoleFunction)
	u2 := tr.AddRegion("u2", trace.ParadigmUser, trace.RoleFunction)
	if RegionColor(tr, mpi) != ColorMPI {
		t.Error("MPI not red")
	}
	if RegionColor(tr, omp) != ColorOpenMP || RegionColor(tr, io) != ColorIO || RegionColor(tr, sys) != ColorSystem {
		t.Error("paradigm colors wrong")
	}
	if RegionColor(tr, u1) == RegionColor(tr, u2) {
		t.Error("distinct user regions share a color")
	}
}

func TestTextRendering(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 100, 12))
	fill(img, img.Bounds(), ColorBackground)
	DrawText(img, 1, 1, "P42", ColorText)
	found := false
	for y := 0; y < 12 && !found; y++ {
		for x := 0; x < 100; x++ {
			if img.RGBAAt(x, y) == ColorText {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("DrawText drew nothing")
	}
	if TextWidth("ABC") != 17 {
		t.Fatalf("TextWidth = %d", TextWidth("ABC"))
	}
	if TextWidth("") != 0 {
		t.Fatal("TextWidth empty != 0")
	}
	// Unknown runes and clipping must not panic.
	DrawText(img, 95, 8, "€ÿ", ColorText)
	DrawText(img, -3, -3, "X", ColorText)
}

func fig3Heatmap(t *testing.T, opts RenderOptions) (*trace.Trace, *segment.Matrix, *image.RGBA) {
	t.Helper()
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := segment.Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := tr.Span()
	return tr, m, SOSHeatmapSpan(first, last, m, opts)
}

func TestSOSHeatmapHotColdPlacement(t *testing.T) {
	// Fig 3, iteration 0: rank 0 has SOS 5 (hot), rank 2 has SOS 1 (cold).
	// With a linear normalizer, rank 0's first segment must be redder than
	// rank 2's.
	n := Normalizer{Lo: 1e6, Hi: 5e6} // SOS range in ns (1..5 toy steps)
	_, _, img := fig3Heatmap(t, RenderOptions{Width: 300, Height: 90, Norm: &n})
	// Sample inside the first iteration (first ~30% of width), rank 0 row
	// (top third) and rank 2 row (bottom third).
	hot := img.RGBAAt(30, 10)
	cold := img.RGBAAt(30, 80)
	if !(hot.R > hot.B) {
		t.Errorf("rank 0 segment not hot: %+v", hot)
	}
	if !(cold.B > cold.R) {
		t.Errorf("rank 2 segment not cold: %+v", cold)
	}
}

func TestTimelineColorsParadigms(t *testing.T) {
	tr := workloads.Fig3Trace()
	img := Timeline(tr, RenderOptions{Width: 300, Height: 90})
	// The later part of rank 2's first iteration is MPI wait (calc 1 of 6
	// steps): expect red pixels in the bottom row's first third.
	foundMPI := false
	for x := 10; x < 90 && !foundMPI; x++ {
		if img.RGBAAt(x, 80) == ColorMPI {
			foundMPI = true
		}
	}
	if !foundMPI {
		t.Error("no MPI-red pixels in rank 2's waiting phase")
	}
	// Rank 0 computes for 5 of 6 steps: expect mostly non-MPI colors early.
	if img.RGBAAt(20, 10) == ColorMPI {
		t.Error("rank 0 early phase rendered as MPI")
	}
}

func TestHeatmapWithLabelsAndLegend(t *testing.T) {
	_, _, img := fig3Heatmap(t, RenderOptions{Width: 400, Height: 160, Labels: true, Title: "FIG3"})
	// The legend gradient must exist on the right side: scan for any
	// pixel matching the hot end of the map.
	hotEnd := CoolWarm().At(1)
	found := false
	for y := 0; y < 160 && !found; y++ {
		for x := 340; x < 400; x++ {
			if img.RGBAAt(x, y) == hotEnd {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("legend hot end not drawn")
	}
}

func TestCounterHeatmap(t *testing.T) {
	tr := trace.New("c", 2)
	cyc := tr.AddMetric("c", "1", trace.MetricAccumulated)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	for rank := trace.Rank(0); rank < 2; rank++ {
		tr.Append(rank, trace.Enter(0, f))
		tr.Append(rank, trace.Sample(0, cyc, 0))
		// Rank 1 accumulates 10x faster.
		tr.Append(rank, trace.Sample(100, cyc, float64(100*(1+9*int(rank)))))
		tr.Append(rank, trace.Leave(100, f))
	}
	// The counters jump once at t=100, so the whole delta lands in the
	// final pixel column; compare the two ranks there.
	n := Normalizer{Lo: 0, Hi: 1000}
	img := CounterHeatmap(tr, cyc, RenderOptions{Width: 200, Height: 60, Norm: &n})
	top := img.RGBAAt(197, 15)    // rank 0: delta 100 → cold
	bottom := img.RGBAAt(197, 45) // rank 1: delta 1000 → hot
	if !(top.B > top.R) {
		t.Errorf("rank 0 counter not cold: %+v", top)
	}
	if !(bottom.R > bottom.B) {
		t.Errorf("rank 1 counter not hot: %+v", bottom)
	}
	// Absolute metrics render held values without error.
	abs := tr.AddMetric("a", "1", trace.MetricAbsolute)
	tr.Append(0, trace.Sample(100, abs, 5))
	tr.SortEvents()
	_ = CounterHeatmap(tr, abs, RenderOptions{Width: 100, Height: 40})
	// Invalid metric: blank image, no panic.
	_ = CounterHeatmap(tr, trace.MetricID(99), RenderOptions{Width: 50, Height: 20})
}

func TestEmptyTraceRendering(t *testing.T) {
	tr := trace.New("empty", 0)
	if img := Timeline(tr, RenderOptions{Width: 50, Height: 20}); img.Bounds().Dx() != 50 {
		t.Error("empty timeline wrong size")
	}
	m := &segment.Matrix{}
	img := SOSHeatmapSpan(0, 0, m, RenderOptions{Width: 50, Height: 20})
	if img.RGBAAt(25, 10) != ColorBackground {
		t.Error("empty heatmap not background")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	_, _, img := fig3Heatmap(t, RenderOptions{Width: 120, Height: 60})
	var buf bytes.Buffer
	if err := WritePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds() != img.Bounds() {
		t.Fatalf("decoded bounds %v != %v", decoded.Bounds(), img.Bounds())
	}
}

func TestSVGOutput(t *testing.T) {
	_, _, img := fig3Heatmap(t, RenderOptions{Width: 120, Height: 60})
	var buf bytes.Buffer
	if err := WriteSVG(&buf, img); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.Contains(s, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(s, "<rect") {
		t.Fatal("no rects emitted")
	}
}

func TestANSIOutput(t *testing.T) {
	_, _, img := fig3Heatmap(t, RenderOptions{Width: 120, Height: 60})
	s := ANSI(img, 40)
	if !strings.Contains(s, "\x1b[38;2;") || !strings.Contains(s, "▀") {
		t.Fatal("no truecolor half blocks")
	}
	lines := strings.Count(s, "\n")
	if lines == 0 || lines > 40 {
		t.Fatalf("unexpected line count %d", lines)
	}
	if got := ANSI(img, 0); got == "" {
		t.Fatal("default cols produced nothing")
	}
	empty := image.NewRGBA(image.Rect(0, 0, 0, 0))
	if got := ANSI(empty, 10); got != "" {
		t.Fatalf("empty image ANSI = %q", got)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.5us"},
		{2.5e6, "2.5ms"},
		{3.25e9, "3.25s"},
		{-2.5e6, "-2.5ms"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.ns); got != c.want {
			t.Errorf("FormatDuration(%g) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// Property: rendering never panics and always returns the requested size
// for arbitrary dimensions.
func TestRenderSizeProperty(t *testing.T) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	m, err := segment.Compute(tr, r.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last := tr.Span()
	f := func(w, h uint8) bool {
		opts := RenderOptions{Width: int(w%200) + 10, Height: int(h%150) + 10, Labels: w%2 == 0}
		img := SOSHeatmapSpan(first, last, m, opts)
		return img.Bounds().Dx() == opts.Width && img.Bounds().Dy() == opts.Height
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineMessageLines(t *testing.T) {
	tr := trace.New("msg", 2)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	for rank := trace.Rank(0); rank < 2; rank++ {
		tr.Append(rank, trace.Enter(0, f))
	}
	tr.Append(0, trace.Send(100, 1, 1, 8))
	tr.Append(1, trace.Recv(900, 0, 1, 8))
	for rank := trace.Rank(0); rank < 2; rank++ {
		tr.Append(rank, trace.Leave(1000, f))
	}
	plain := Timeline(tr, RenderOptions{Width: 200, Height: 80})
	withMsgs := Timeline(tr, RenderOptions{Width: 200, Height: 80, Messages: true})
	dark := color.RGBA{R: 0x10, G: 0x10, B: 0x10, A: 0xff}
	count := func(img *Image) int {
		n := 0
		b := img.Bounds()
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				if img.RGBAAt(x, y) == dark {
					n++
				}
			}
		}
		return n
	}
	if count(plain) != 0 {
		t.Fatal("message line drawn without Messages option")
	}
	if count(withMsgs) < 10 {
		t.Fatalf("message line missing: %d dark pixels", count(withMsgs))
	}
	// MaxMessages caps the overlay.
	capped := Timeline(tr, RenderOptions{Width: 200, Height: 80, Messages: true, MaxMessages: -0})
	_ = capped
	one := Timeline(tr, RenderOptions{Width: 200, Height: 80, Messages: true, MaxMessages: 1})
	if count(one) == 0 {
		t.Fatal("capped overlay drew nothing")
	}
}
