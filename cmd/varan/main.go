// Command varan (VARiation ANalyzer) runs the paper's three-step pipeline
// on a trace archive: dominant-function identification, SOS-time
// segmentation, and hotspot analysis. It prints a text or JSON report and
// can render the SOS heatmap to PNG/SVG or straight to the terminal.
//
//	varan -trace run.pvt
//	varan -trace run.pvt -json
//	varan -trace run.pvt -refine -heatmap sos.png
//	varan -trace run.pvt -dominant specs_timestep -ansi
//	varan -trace run.pvt -causality -breakdown
//	varan -trace run.pvt -clockfix -calltree
//
// The archive is streamed per rank, never loaded whole (text pvtt
// archives are parsed into memory). A validation pass over the streams
// rejects invalid traces first; -clockfix shifts timestamps as they
// stream.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perfvar"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("varan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "input trace: a PVTR or pvtt file, or a directory archive (required)")
		dominant  = fs.String("dominant", "", "force segmentation at this function")
		syncPref  = fs.String("sync", "", "comma-separated region-name prefixes treated as synchronization (default: by paradigm)")
		zthresh   = fs.Float64("z", 0, "hotspot robust z-score threshold (default 3.5)")
		topK      = fs.Int("top", 0, "cap the number of reported hotspots")
		refine    = fs.Bool("refine", false, "re-segment at the next finer candidate after the automatic pass")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON")
		heatmap   = fs.String("heatmap", "", "write the SOS heatmap to this PNG or SVG file")
		htmlOut   = fs.String("html", "", "write a self-contained HTML report to this file")
		ansi      = fs.Bool("ansi", false, "print the SOS heatmap to the terminal (truecolor)")
		width     = fs.Int("width", 900, "heatmap width in pixels")
		height    = fs.Int("height", 480, "heatmap height in pixels")
		phasesK   = fs.Int("phases", 0, "cluster segments into K phases (-1 = automatic K)")
		trends    = fs.Bool("trends", false, "print per-rank slowdown trends")
		causers   = fs.Bool("causers", false, "print the wait-time attribution (who makes others idle)")
		causality = fs.Bool("causality", false, "print the cross-rank causality analysis (wait states, root causes, deadlock cycles)")
		breakdown = fs.Bool("breakdown", false, "print the per-region breakdown of the top hotspot")
		calltree  = fs.Bool("calltree", false, "print the calling-context tree (depth 3)")
		clocks    = fs.Bool("clockfix", false, "detect and correct clock skew before analyzing")
		jobs      = fs.Int("j", 0, "worker goroutines for per-rank stages (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *jobs > 0 {
		perfvar.SetJobs(*jobs)
	}
	if *tracePath == "" {
		fmt.Fprintln(stderr, "varan: -trace is required")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "varan:", err)
		return 1
	}

	opts := perfvar.Options{
		DominantFunction: *dominant,
		ZThreshold:       *zthresh,
		TopK:             *topK,
	}
	if *syncPref != "" {
		opts.SyncPrefixes = strings.Split(*syncPref, ",")
	}

	ctx := context.Background()
	st, err := perfvar.FileSource(*tracePath).Open(ctx)
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	var src perfvar.Source = openedSource{st}
	if err := perfvar.ValidateSource(ctx, src); err != nil {
		return fail(err)
	}
	if *clocks {
		fixed, info, err := perfvar.CorrectClocksSource(ctx, src, 1000)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "clock check: %d violations before, %d after correction\n\n",
			info.ViolationsBefore, info.ViolationsAfter)
		src = fixed
	}
	res, err := perfvar.AnalyzeSource(ctx, src, opts)
	if err != nil {
		return fail(err)
	}
	if *refine {
		if res, err = res.Refine(opts); err != nil {
			return fail(err)
		}
	}

	rep := res.Report()
	if *jsonOut {
		err = rep.WriteJSON(stdout)
	} else {
		err = rep.WriteText(stdout)
	}
	if err != nil {
		return fail(err)
	}

	if *phasesK != 0 {
		c := res.Phases(*phasesK)
		fmt.Fprintf(stdout, "\nComputation phases (k=%d):\n", c.K)
		for j := range c.Centroids {
			if c.Sizes[j] == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  phase %d: %6d segments, mean SOS %-10s sync fraction %.0f%%\n",
				j, c.Sizes[j], fmt.Sprintf("%.2fms", c.Centroids[j].SOS/1e6),
				c.Centroids[j].SyncFraction*100)
		}
	}

	if *trends {
		ts := res.RankTrends(0.8)
		fmt.Fprintln(stdout, "\nPer-rank slowdown trends (r² ≥ 0.8, steepest first):")
		for i, tr := range ts {
			if i >= 10 {
				fmt.Fprintf(stdout, "  ... %d more\n", len(ts)-10)
				break
			}
			fmt.Fprintf(stdout, "  rank %-5d %+8.1fus/iteration (r²=%.2f)\n", tr.Rank, tr.Slope/1e3, tr.R2)
		}
		if len(ts) == 0 {
			fmt.Fprintln(stdout, "  none (no rank shows a consistent slope)")
		}
	}

	if *causers {
		cs := res.WaitCausers()
		fmt.Fprintln(stdout, "\nWait attribution (aggregate peer idle time caused):")
		for i, c := range cs {
			if i >= 10 {
				fmt.Fprintf(stdout, "  ... %d more\n", len(cs)-10)
				break
			}
			fmt.Fprintf(stdout, "  rank %-5d caused %8.1fms across %d iterations\n",
				c.Rank, float64(c.CausedWait)/1e6, c.CulpritIterations)
		}
		if len(cs) == 0 {
			fmt.Fprintln(stdout, "  none (perfectly balanced)")
		}
	}

	if *causality {
		an, err := res.Causality()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "\nCross-rank causality analysis:")
		fmt.Fprintf(stdout, "  wait states: late-sender %s over %d message(s), late-receiver slack %s over %d, collective wait %s over %d occurrence(s)\n",
			fmtDur(an.LateSenderWait), an.LateSenderCount,
			fmtDur(an.LateReceiverSlack), an.LateReceiverCount,
			fmtDur(an.CollectiveWait), an.CollectiveCount)
		fmt.Fprintln(stdout, "  root causes (propagated peer wait, worst first):")
		for i, ra := range an.Ranks {
			if i >= 10 {
				fmt.Fprintf(stdout, "    ... %d more\n", len(an.Ranks)-10)
				break
			}
			fmt.Fprintf(stdout, "    rank %-5d caused %10s across %d segment(s), worst in segment %d\n",
				ra.Rank, fmtDur(ra.CausedWait), ra.Segments, ra.WorstSegment)
		}
		if len(an.Ranks) == 0 {
			fmt.Fprintln(stdout, "    none (no rank imposes wait on its peers)")
		}
		if len(an.Candidates) > 0 {
			c := an.Candidates[0]
			fmt.Fprintf(stdout, "  top candidate: rank %d, segment %d, function %q (caused %s, SOS %s)\n",
				c.Rank, c.Segment, c.Function, fmtDur(c.CausedWait), fmtDur(c.SOS))
		}
		for _, cy := range an.Cycles {
			fmt.Fprintf(stdout, "  DEADLOCK CANDIDATE: communication cycle among rank(s) %v (%d unmatched operations)\n",
				cy.Ranks, cy.Ops)
		}
	}

	if *breakdown && len(res.Analysis.Hotspots) > 0 {
		top := res.Analysis.Hotspots[0].Segment
		entries, err := res.Breakdown(top)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nBreakdown of top hotspot (rank %d, iteration %d):\n", top.Rank, top.Index)
		for _, e := range entries {
			fmt.Fprintf(stdout, "  %-28s %10.2fms (%5.1f%%)\n", e.Name, float64(e.Exclusive)/1e6, e.Share*100)
		}
	}

	if *calltree {
		tree, err := perfvar.CallTreeSource(ctx, src)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "\nCalling-context tree:")
		if err := tree.Print(stdout, 3); err != nil {
			return fail(err)
		}
	}

	renderOpts := perfvar.RenderOptions{
		Width: *width, Height: *height, Labels: true,
		Title: fmt.Sprintf("SOS-TIME: %s / %s", rep.TraceName, res.Matrix.RegionName),
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return fail(err)
		}
		if err := rep.WriteHTML(f, res.Heatmap(renderOpts)); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nHTML report written to %s\n", *htmlOut)
	}
	if *heatmap != "" {
		img := res.Heatmap(renderOpts)
		switch {
		case strings.HasSuffix(*heatmap, ".svg"):
			err = perfvar.SaveSVG(*heatmap, img)
		default:
			err = perfvar.SavePNG(*heatmap, img)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nheatmap written to %s\n", *heatmap)
	}
	if *ansi {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, perfvar.ANSI(res.Heatmap(perfvar.RenderOptions{Width: 400, Height: 200}), 100))
	}
	return 0
}

// openedSource serves one open archive to every step, so the steps
// share one handle and a text archive is parsed once; run closes it.
type openedSource struct{ perfvar.SourceStreams }

func (s openedSource) Open(context.Context) (perfvar.SourceStreams, error) { return s, nil }
func (openedSource) Close() error                                          { return nil }

// fmtDur renders a nanosecond duration with a compact unit.
func fmtDur(ns int64) string {
	abs := ns
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
