package vis

import (
	"context"
	"image"
	"sort"

	"perfvar/internal/callstack"
	"perfvar/internal/core/segment"
	"perfvar/internal/stats"
	"perfvar/internal/trace"
)

// FunctionSummary renders Vampir's "function summary" view: a horizontal
// bar chart of the topN regions by aggregated exclusive time across all
// ranks, colored like the timeline. It returns a blank canvas for traces
// that cannot be replayed.
func FunctionSummary(tr *trace.Trace, topN int, opts RenderOptions) *Image {
	o := opts.withDefaults()
	img := newCanvas(o)
	prof, err := callstack.ProfileOf(context.Background(), tr)
	if err != nil {
		return img
	}
	type row struct {
		id   trace.RegionID
		name string
		excl trace.Duration
	}
	var rows []row
	for _, rp := range prof.Regions {
		if rp.SumExclusive > 0 {
			rows = append(rows, row{id: rp.Region, name: tr.Region(rp.Region).Name, excl: rp.SumExclusive})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].excl != rows[j].excl {
			return rows[i].excl > rows[j].excl
		}
		return rows[i].id < rows[j].id
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	if len(rows) == 0 {
		return img
	}

	l := makeLayout(o, false)
	if o.Labels && o.Title != "" {
		DrawText(img, l.plot.Min.X, 3, o.Title, ColorText)
	}
	labelW := 0
	if o.Labels {
		for _, r := range rows {
			if w := TextWidth(r.name); w > labelW {
				labelW = w
			}
		}
		labelW += 6
	}
	barArea := image.Rect(l.plot.Min.X+labelW, l.plot.Min.Y, l.plot.Max.X-60, l.plot.Max.Y)
	if barArea.Dx() < 10 {
		return img
	}
	maxV := float64(rows[0].excl)
	rowH := barArea.Dy() / len(rows)
	if rowH < 2 {
		rowH = 2
	}
	for i, r := range rows {
		y0 := barArea.Min.Y + i*rowH
		y1 := y0 + rowH - 2
		if y1 <= y0 {
			y1 = y0 + 1
		}
		if y1 > barArea.Max.Y {
			break
		}
		w := int(float64(r.excl) / maxV * float64(barArea.Dx()))
		if w < 1 {
			w = 1
		}
		fill(img, image.Rect(barArea.Min.X, y0, barArea.Min.X+w, y1), RegionColor(tr, r.id))
		if o.Labels {
			DrawText(img, l.plot.Min.X, y0+(y1-y0-glyphH)/2, r.name, ColorText)
			DrawText(img, barArea.Min.X+w+3, y0+(y1-y0-glyphH)/2,
				FormatDuration(float64(r.excl)), ColorText)
		}
	}
	return img
}

// SOSHistogram renders the distribution of a matrix's SOS-times as a
// vertical bar chart with the heatmap color scale, so the analyst can see
// whether variations are outliers (long thin tail) or a mode shift. bins
// defaults to 30 when non-positive.
func SOSHistogram(m *segment.Matrix, bins int, opts RenderOptions) *Image {
	o := opts.withDefaults()
	img := newCanvas(o)
	values := m.SOSValues()
	if len(values) == 0 {
		return img
	}
	if bins <= 0 {
		bins = 30
	}
	lo, hi := stats.MinMax(values)
	counts := stats.Histogram(values, lo, hi, bins)
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return img
	}
	l := makeLayout(o, false)
	if o.Labels && o.Title != "" {
		DrawText(img, l.plot.Min.X, 3, o.Title, ColorText)
	}
	barW := l.plot.Dx() / bins
	if barW < 1 {
		barW = 1
	}
	for b, c := range counts {
		if c == 0 {
			continue
		}
		h := int(float64(c) / float64(maxCount) * float64(l.plot.Dy()-2))
		if h < 1 {
			h = 1
		}
		x0 := l.plot.Min.X + b*barW
		den := float64(bins - 1)
		if den <= 0 {
			den = 1 // a single bin takes the cold end of the scale
		}
		col := o.Map.At(float64(b) / den)
		fill(img, image.Rect(x0, l.plot.Max.Y-h, x0+barW-1, l.plot.Max.Y), col)
	}
	if o.Labels {
		DrawText(img, l.plot.Min.X, l.plot.Max.Y+3, FormatDuration(lo), ColorText)
		end := FormatDuration(hi)
		DrawText(img, l.plot.Max.X-TextWidth(end), l.plot.Max.Y+3, end, ColorText)
	}
	return img
}
