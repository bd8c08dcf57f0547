package vis

import (
	"image"
	"image/draw"

	"perfvar/internal/core/segment"
	"perfvar/internal/trace"
)

// ComparedRun is one run of a comparison view: its name, its run span
// and its segment matrix.
type ComparedRun struct {
	Name        string
	First, Last trace.Time
	Matrix      *segment.Matrix
}

// ComparisonHeatmap renders the SOS heatmaps of two runs stacked above
// each other with one shared color scale, so the same color means the
// same SOS-time in both — the visual companion of the compare package's
// before/after analysis. The top half shows run A, the bottom run B.
func ComparisonHeatmap(a, b ComparedRun, opts RenderOptions) *Image {
	o := opts.withDefaults()
	img := newCanvas(o)

	// Shared normalizer over both runs' SOS values.
	norm := o.Norm
	if norm == nil {
		all := append(a.Matrix.SOSValues(), b.Matrix.SOSValues()...)
		n := RobustNormalizer(all)
		norm = &n
	}

	topH := o.Height / 2
	half := o
	half.Height = topH
	half.Norm = norm
	half.Title = "RUN A: " + a.Name
	top := SOSHeatmapSpan(a.First, a.Last, a.Matrix, half)

	half.Height = o.Height - topH
	half.Title = "RUN B: " + b.Name
	bottom := SOSHeatmapSpan(b.First, b.Last, b.Matrix, half)

	draw.Draw(img, image.Rect(0, 0, o.Width, topH), top, image.Point{}, draw.Src)
	draw.Draw(img, image.Rect(0, topH, o.Width, o.Height), bottom, image.Point{}, draw.Src)
	return img
}
