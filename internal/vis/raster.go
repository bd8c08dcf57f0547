package vis

import (
	"fmt"
	"image"
	"image/color"
	"sort"

	"perfvar/internal/core/segment"
	"perfvar/internal/metric"
	"perfvar/internal/trace"
)

// Image is the rasterizer's output type (an alias for image.RGBA so
// callers can use the standard image APIs directly).
type Image = image.RGBA

// RenderOptions control rasterization. The zero value renders a 900×480
// unlabeled image with the CoolWarm map and a robust normalizer.
type RenderOptions struct {
	// Width and Height are the total image dimensions in pixels.
	Width, Height int
	// Labels enables the title, rank labels, time axis, and legend.
	Labels bool
	// Title is drawn at the top when Labels is set.
	Title string
	// Map is the color map for heatmap views.
	Map ColorMap
	// Norm overrides the value normalization of heatmap views; nil uses
	// RobustNormalizer over the rendered values.
	Norm *Normalizer
	// Messages draws point-to-point messages as black send→receive lines
	// on Timeline views (the paper's Fig. 5a style). To keep large traces
	// readable at most MaxMessages lines are drawn (default 2000).
	Messages    bool
	MaxMessages int
}

func (o RenderOptions) withDefaults() RenderOptions {
	if o.Width <= 0 {
		o.Width = 900
	}
	if o.Height <= 0 {
		o.Height = 480
	}
	if len(o.Map.Stops) == 0 {
		o.Map = CoolWarm()
	}
	return o
}

// layout splits the image into plot area and gutters.
type layout struct {
	plot   image.Rectangle
	legend image.Rectangle // zero if disabled
	labels bool
}

func makeLayout(o RenderOptions, legend bool) layout {
	l := layout{labels: o.Labels}
	left, top, right, bottom := 2, 2, 2, 2
	if o.Labels {
		left = 34
		top = 14
		bottom = 14
		if legend {
			right = 64
		}
	}
	l.plot = image.Rect(left, top, o.Width-right, o.Height-bottom)
	if o.Labels && legend {
		l.legend = image.Rect(o.Width-52, top+8, o.Width-42, o.Height-bottom-8)
	}
	return l
}

func newCanvas(o RenderOptions) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, o.Width, o.Height))
	fill(img, img.Bounds(), ColorBackground)
	return img
}

func fill(img *image.RGBA, r image.Rectangle, c color.RGBA) {
	r = r.Intersect(img.Bounds())
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			img.SetRGBA(x, y, c)
		}
	}
}

// rankRows maps each rank to its pixel row span within plot.
func rankRows(plot image.Rectangle, ranks int) func(rank int) (y0, y1 int) {
	h := plot.Dy()
	return func(rank int) (int, int) {
		y0 := plot.Min.Y + rank*h/ranks
		y1 := plot.Min.Y + (rank+1)*h/ranks
		if y1 <= y0 {
			y1 = y0 + 1
		}
		return y0, y1
	}
}

// RegionColor returns the timeline color of a region: MPI red, OpenMP
// orange, I/O dark gray, system gray, and user regions cycling through the
// categorical palette in definition order.
func RegionColor(tr *trace.Trace, id trace.RegionID) color.RGBA {
	r := tr.Region(id)
	switch r.Paradigm {
	case trace.ParadigmMPI:
		return ColorMPI
	case trace.ParadigmOpenMP:
		return ColorOpenMP
	case trace.ParadigmIO:
		return ColorIO
	case trace.ParadigmSystem:
		return ColorSystem
	}
	// Stable index among user regions.
	idx := 0
	for _, def := range tr.Regions {
		if def.ID == id {
			break
		}
		if def.Paradigm == trace.ParadigmUser {
			idx++
		}
	}
	return userPalette[idx%len(userPalette)]
}

// Timeline renders the classic Vampir master-timeline view: one horizontal
// bar per rank, colored by the activity (top-of-stack region) that covers
// the most time in each pixel column.
func Timeline(tr *trace.Trace, opts RenderOptions) *image.RGBA {
	o := opts.withDefaults()
	img := newCanvas(o)
	l := makeLayout(o, false)
	first, last := tr.Span()
	if last <= first || tr.NumRanks() == 0 {
		return img
	}
	span := float64(last - first)
	plotW := l.plot.Dx()
	rows := rankRows(l.plot, tr.NumRanks())

	toPx := func(t trace.Time) float64 {
		return float64(t-first) / span * float64(plotW)
	}

	for rank := range tr.Procs {
		// Accumulate per-pixel coverage of the active region.
		weights := make(map[trace.RegionID][]float64)
		addCover := func(r trace.RegionID, a, b trace.Time) {
			if b <= a {
				return
			}
			w := weights[r]
			if w == nil {
				w = make([]float64, plotW)
				weights[r] = w
			}
			xa, xb := toPx(a), toPx(b)
			for px := int(xa); px < plotW && float64(px) < xb; px++ {
				lo, hi := xa, xb
				if lo < float64(px) {
					lo = float64(px)
				}
				if hi > float64(px+1) {
					hi = float64(px + 1)
				}
				if hi > lo {
					w[px] += hi - lo
				}
			}
		}
		var stack []trace.RegionID
		var stackT trace.Time
		for _, ev := range tr.Procs[rank].Events {
			switch ev.Kind {
			case trace.KindEnter:
				if len(stack) > 0 {
					addCover(stack[len(stack)-1], stackT, ev.Time)
				}
				stack = append(stack, ev.Region)
				stackT = ev.Time
			case trace.KindLeave:
				if len(stack) > 0 {
					addCover(stack[len(stack)-1], stackT, ev.Time)
					stack = stack[:len(stack)-1]
					stackT = ev.Time
				}
			}
		}
		// Scan regions in sorted id order: the per-pixel argmax below
		// breaks coverage ties by first-seen, so iterating the map
		// directly would let the runtime's randomized order pick the
		// winning color — the rendered PNG must be byte-identical
		// across runs.
		ids := make([]trace.RegionID, 0, len(weights))
		for r := range weights {
			ids = append(ids, r)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		y0, y1 := rows(rank)
		for px := 0; px < plotW; px++ {
			var best trace.RegionID = trace.NoRegion
			bestW := 0.0
			for _, r := range ids {
				if w := weights[r]; w[px] > bestW {
					bestW = w[px]
					best = r
				}
			}
			if best == trace.NoRegion {
				continue
			}
			c := RegionColor(tr, best)
			for y := y0; y < y1; y++ {
				setPixel(img, l.plot.Min.X+px, y, c)
			}
		}
	}
	if o.Messages {
		drawMessages(img, l, o, tr, first, span)
	}
	decorate(img, l, o, tr.NumRanks(), first, last)
	return img
}

// drawMessages overlays send→receive lines. Messages are paired per
// (src, dst, tag) channel in FIFO order, like the clock-sanity analysis.
func drawMessages(img *image.RGBA, l layout, o RenderOptions, tr *trace.Trace, first trace.Time, span float64) {
	maxLines := o.MaxMessages
	if maxLines <= 0 {
		maxLines = 2000
	}
	type key struct {
		src, dst trace.Rank
		tag      int32
	}
	sends := make(map[key][]trace.Time)
	for rank := range tr.Procs {
		for _, ev := range tr.Procs[rank].Events {
			if ev.Kind == trace.KindSend {
				k := key{src: trace.Rank(rank), dst: ev.Peer, tag: ev.Tag}
				sends[k] = append(sends[k], ev.Time)
			}
		}
	}
	rows := rankRows(l.plot, tr.NumRanks())
	toX := func(t trace.Time) int {
		return l.plot.Min.X + int(float64(t-first)/span*float64(l.plot.Dx()-1))
	}
	rowMid := func(rank trace.Rank) int {
		y0, y1 := rows(int(rank))
		return (y0 + y1) / 2
	}
	used := make(map[key]int)
	lineColor := color.RGBA{R: 0x10, G: 0x10, B: 0x10, A: 0xff}
	drawn := 0
	for rank := range tr.Procs {
		for _, ev := range tr.Procs[rank].Events {
			if ev.Kind != trace.KindRecv || drawn >= maxLines {
				continue
			}
			k := key{src: ev.Peer, dst: trace.Rank(rank), tag: ev.Tag}
			idx := used[k]
			if idx >= len(sends[k]) {
				continue
			}
			used[k] = idx + 1
			drawLine(img, toX(sends[k][idx]), rowMid(ev.Peer), toX(ev.Time), rowMid(trace.Rank(rank)), lineColor)
			drawn++
		}
	}
}

// SOSHeatmapSpan renders the paper's core visualization: per rank and
// time, the segments of the dominant function colored by SOS-time — blue
// for fast segments, red for slow ones. first and last are the run span
// (Trace.Span), which places the segments on the time axis.
func SOSHeatmapSpan(first, last trace.Time, m *segment.Matrix, opts RenderOptions) *image.RGBA {
	o := opts.withDefaults()
	img := newCanvas(o)
	l := makeLayout(o, true)
	if last <= first || m.NumRanks() == 0 {
		return img
	}
	span := float64(last - first)
	plotW := l.plot.Dx()
	rows := rankRows(l.plot, m.NumRanks())

	norm := o.Norm
	if norm == nil {
		n := RobustNormalizer(m.SOSValues())
		norm = &n
	}

	for rank, segs := range m.PerRank {
		y0, y1 := rows(rank)
		for i := range segs {
			seg := &segs[i]
			x0 := l.plot.Min.X + int(float64(seg.Start-first)/span*float64(plotW))
			x1 := l.plot.Min.X + int(float64(seg.End-first)/span*float64(plotW))
			if x1 <= x0 {
				x1 = x0 + 1
			}
			c := o.Map.At(norm.Norm(float64(seg.SOS())))
			fill(img, image.Rect(x0, y0, x1, y1), c)
		}
	}
	decorate(img, l, o, m.NumRanks(), first, last)
	drawLegend(img, l, o, *norm, FormatDuration)
	return img
}

// SOSHeatmapByIndex renders the segment matrix with the x axis in
// invocation-index space: every iteration gets the same width regardless
// of its wall-clock duration. For runs whose iterations stretch over time
// (the COSMO-SPECS slowdown) this keeps late iterations comparable to
// early ones, matching the equal-width segment rows of the paper's
// figures.
func SOSHeatmapByIndex(m *segment.Matrix, opts RenderOptions) *Image {
	o := opts.withDefaults()
	img := newCanvas(o)
	l := makeLayout(o, true)
	maxSegs := 0
	for _, segs := range m.PerRank {
		if len(segs) > maxSegs {
			maxSegs = len(segs)
		}
	}
	if maxSegs == 0 || m.NumRanks() == 0 {
		return img
	}
	norm := o.Norm
	if norm == nil {
		n := RobustNormalizer(m.SOSValues())
		norm = &n
	}
	rows := rankRows(l.plot, m.NumRanks())
	plotW := l.plot.Dx()
	for rank, segs := range m.PerRank {
		y0, y1 := rows(rank)
		for i := range segs {
			x0 := l.plot.Min.X + i*plotW/maxSegs
			x1 := l.plot.Min.X + (i+1)*plotW/maxSegs
			if x1 <= x0 {
				x1 = x0 + 1
			}
			c := o.Map.At(norm.Norm(float64(segs[i].SOS())))
			fill(img, image.Rect(x0, y0, x1, y1), c)
		}
	}
	if l.labels {
		if o.Title != "" {
			DrawText(img, l.plot.Min.X, 3, o.Title, ColorText)
		}
		y := l.plot.Max.Y + 3
		DrawText(img, l.plot.Min.X, y, "ITER 0", ColorText)
		end := fmt.Sprintf("ITER %d", maxSegs-1)
		DrawText(img, l.plot.Max.X-TextWidth(end), y, end, ColorText)
	}
	drawLegend(img, l, o, *norm, FormatDuration)
	return img
}

// CounterHeatmap renders a metric as a per-rank color strip over time:
// accumulated metrics show their per-pixel growth rate, absolute metrics
// their held value. This reproduces views like the paper's Fig. 6(c)
// (FP-exception counter) and the SOS overlay metric itself.
func CounterHeatmap(tr *trace.Trace, id trace.MetricID, opts RenderOptions) *image.RGBA {
	o := opts.withDefaults()
	img := newCanvas(o)
	l := makeLayout(o, true)
	first, last := tr.Span()
	if last <= first || tr.NumRanks() == 0 || int(id) >= len(tr.Metrics) || id < 0 {
		return img
	}
	span := last - first
	plotW := l.plot.Dx()
	rows := rankRows(l.plot, tr.NumRanks())
	accumulated := tr.Metrics[id].Mode == trace.MetricAccumulated

	values := make([][]float64, tr.NumRanks())
	var all []float64
	for rank := range tr.Procs {
		s := metric.SeriesOf(tr, trace.Rank(rank), id)
		row := make([]float64, plotW)
		for px := 0; px < plotW; px++ {
			t0 := first + span*trace.Time(px)/trace.Time(plotW)
			t1 := first + span*trace.Time(px+1)/trace.Time(plotW)
			if accumulated {
				row[px] = s.DeltaIn(t0, t1)
			} else {
				row[px] = s.ValueAt(t1)
			}
		}
		values[rank] = row
		all = append(all, row...)
	}
	norm := o.Norm
	if norm == nil {
		n := RobustNormalizer(all)
		norm = &n
	}
	for rank, row := range values {
		y0, y1 := rows(rank)
		for px, v := range row {
			c := o.Map.At(norm.Norm(v))
			for y := y0; y < y1; y++ {
				setPixel(img, l.plot.Min.X+px, y, c)
			}
		}
	}
	decorate(img, l, o, tr.NumRanks(), first, last)
	drawLegend(img, l, o, *norm, func(v float64) string { return fmt.Sprintf("%.3g", v) })
	return img
}

// decorate draws the title, rank labels, and time axis when enabled.
func decorate(img *image.RGBA, l layout, o RenderOptions, nranks int, first, last trace.Time) {
	if !l.labels {
		return
	}
	if o.Title != "" {
		DrawText(img, l.plot.Min.X, 3, o.Title, ColorText)
	}
	// Rank labels: first, middle, last (as many as fit).
	n := nranks
	if n > 0 {
		rows := rankRows(l.plot, n)
		step := 1
		for n/step*glyphH > l.plot.Dy() {
			step *= 2
		}
		for rank := 0; rank < n; rank += step {
			y0, _ := rows(rank)
			DrawText(img, 2, y0, fmt.Sprintf("P%d", rank), ColorText)
		}
	}
	// Time axis: start, mid, end.
	y := l.plot.Max.Y + 3
	DrawText(img, l.plot.Min.X, y, FormatDuration(0), ColorText)
	mid := FormatDuration(float64(last-first) / 2)
	DrawText(img, l.plot.Min.X+(l.plot.Dx()-TextWidth(mid))/2, y, mid, ColorText)
	end := FormatDuration(float64(last - first))
	DrawText(img, l.plot.Max.X-TextWidth(end), y, end, ColorText)
}

// drawLegend renders the vertical color scale with hi/lo labels.
func drawLegend(img *image.RGBA, l layout, o RenderOptions, norm Normalizer, format func(float64) string) {
	if l.legend.Empty() {
		return
	}
	h := l.legend.Dy()
	for dy := 0; dy < h; dy++ {
		v := 1 - float64(dy)/float64(h-1)
		c := o.Map.At(v)
		for x := l.legend.Min.X; x < l.legend.Max.X; x++ {
			setPixel(img, x, l.legend.Min.Y+dy, c)
		}
	}
	DrawText(img, l.legend.Min.X-2, l.legend.Min.Y-8, format(norm.Hi), ColorText)
	DrawText(img, l.legend.Min.X-2, l.legend.Max.Y+2, format(norm.Lo), ColorText)
}

// FormatDuration renders a nanosecond quantity with a compact unit.
func FormatDuration(ns float64) string {
	abs := ns
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
