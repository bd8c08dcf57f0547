// Command traceview renders PVTR trace archives as Vampir-style images:
// the function-colored master timeline, the SOS-time heatmap, or a
// hardware-counter heatmap.
//
//	traceview -trace run.pvt -view timeline -o timeline.png
//	traceview -trace run.pvt -view sos -ansi
//	traceview -trace run.pvt -view counter -metric PAPI_TOT_CYC -o cyc.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"perfvar"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "input trace: a PVTR or pvtt file, or a directory archive (required)")
		view      = flag.String("view", "timeline", "view: timeline, sos, sosindex, counter")
		metricN   = flag.String("metric", "", "metric name for -view counter")
		out       = flag.String("o", "", "output image path (.png or .svg)")
		ansi      = flag.Bool("ansi", false, "print the view to the terminal (truecolor)")
		width     = flag.Int("width", 900, "image width in pixels")
		height    = flag.Int("height", 480, "image height in pixels")
		cols      = flag.Int("cols", 100, "terminal columns for -ansi")
		title     = flag.String("title", "", "image title (default derived from the trace)")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "traceview: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	tr, err := perfvar.LoadTrace(*tracePath)
	if err != nil {
		fatal(err)
	}

	opts := perfvar.RenderOptions{Width: *width, Height: *height, Labels: true, Title: *title}
	var img *perfvar.Image
	switch *view {
	case "timeline":
		if opts.Title == "" {
			opts.Title = "TIMELINE: " + tr.Name
		}
		img = perfvar.Timeline(tr, opts)
	case "sos", "sosindex":
		res, err := perfvar.Analyze(tr, perfvar.Options{})
		if err != nil {
			fatal(err)
		}
		if opts.Title == "" {
			opts.Title = fmt.Sprintf("SOS-TIME: %s / %s", tr.Name, res.Matrix.RegionName)
		}
		if *view == "sosindex" {
			img = res.HeatmapByIndex(opts)
		} else {
			img = res.Heatmap(opts)
		}
	case "counter":
		if *metricN == "" {
			fatal(fmt.Errorf("-view counter requires -metric"))
		}
		if opts.Title == "" {
			opts.Title = "COUNTER: " + *metricN
		}
		img, err = perfvar.CounterHeatmap(tr, *metricN, opts)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown view %q", *view))
	}

	if *out != "" {
		if strings.HasSuffix(*out, ".svg") {
			err = perfvar.SaveSVG(*out, img)
		} else {
			err = perfvar.SavePNG(*out, img)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *ansi || *out == "" {
		fmt.Print(perfvar.ANSI(img, *cols))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceview:", err)
	os.Exit(1)
}
