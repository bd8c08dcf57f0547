// Command varan (VARiation ANalyzer) runs the paper's three-step pipeline
// on a PVTR trace archive: dominant-function identification, SOS-time
// segmentation, and hotspot analysis. It prints a text or JSON report and
// can render the SOS heatmap to PNG/SVG or straight to the terminal.
//
//	varan -trace run.pvt
//	varan -trace run.pvt -json
//	varan -trace run.pvt -refine -heatmap sos.png
//	varan -trace run.pvt -dominant specs_timestep -ansi
//	varan -trace run.pvt -causality
//	varan -trace run.pvt -stream -causality -breakdown
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"perfvar"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "input PVTR trace archive (required)")
		dominant  = flag.String("dominant", "", "force segmentation at this function")
		syncPref  = flag.String("sync", "", "comma-separated region-name prefixes treated as synchronization (default: by paradigm)")
		zthresh   = flag.Float64("z", 0, "hotspot robust z-score threshold (default 3.5)")
		topK      = flag.Int("top", 0, "cap the number of reported hotspots")
		refine    = flag.Bool("refine", false, "re-segment at the next finer candidate after the automatic pass")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		heatmap   = flag.String("heatmap", "", "write the SOS heatmap to this PNG or SVG file")
		htmlOut   = flag.String("html", "", "write a self-contained HTML report to this file")
		ansi      = flag.Bool("ansi", false, "print the SOS heatmap to the terminal (truecolor)")
		width     = flag.Int("width", 900, "heatmap width in pixels")
		height    = flag.Int("height", 480, "heatmap height in pixels")
		phasesK   = flag.Int("phases", 0, "cluster segments into K phases (-1 = automatic K)")
		trends    = flag.Bool("trends", false, "print per-rank slowdown trends")
		causers   = flag.Bool("causers", false, "print the wait-time attribution (who makes others idle)")
		causality = flag.Bool("causality", false, "print the cross-rank causality analysis (wait states, root causes, deadlock cycles)")
		breakdown = flag.Bool("breakdown", false, "print the per-region breakdown of the top hotspot")
		calltree  = flag.Bool("calltree", false, "print the calling-context tree (depth 3)")
		clocks    = flag.Bool("clockfix", false, "detect and correct clock skew before analyzing")
		stream    = flag.Bool("stream", false, "stream the archive without loading and validating it (memory bounded by segments, not events)")
		jobs      = flag.Int("j", 0, "worker goroutines for per-rank stages (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *jobs > 0 {
		perfvar.SetJobs(*jobs)
	}
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "varan: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	if *stream && (*clocks || *calltree) {
		fmt.Fprintln(os.Stderr, "varan: -clockfix and -calltree need the full event stream and cannot combine with -stream")
		os.Exit(2)
	}

	opts := perfvar.Options{
		DominantFunction: *dominant,
		ZThreshold:       *zthresh,
		TopK:             *topK,
	}
	if *syncPref != "" {
		opts.SyncPrefixes = strings.Split(*syncPref, ",")
	}

	var tr *perfvar.Trace
	src := perfvar.FileSource(*tracePath)
	if !*stream {
		// LoadTrace validates metric order, byte counts and timestamp
		// order; -stream analyzes the archive without that check.
		var err error
		tr, err = perfvar.LoadTrace(*tracePath)
		if err != nil {
			fatal(err)
		}
		if *clocks {
			fixed, info, err := perfvar.CorrectClocks(tr, 1000)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("clock check: %d violations before, %d after correction\n\n",
				info.ViolationsBefore, info.ViolationsAfter)
			tr = fixed
		}
		src = perfvar.TraceSource(tr)
	}
	res, err := perfvar.AnalyzeSource(context.Background(), src, opts)
	if err != nil {
		fatal(err)
	}
	if *refine {
		if res, err = res.Refine(opts); err != nil {
			fatal(err)
		}
	}

	rep := res.Report()
	if *jsonOut {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}

	if *phasesK != 0 {
		c := res.Phases(*phasesK)
		fmt.Printf("\nComputation phases (k=%d):\n", c.K)
		for j := range c.Centroids {
			if c.Sizes[j] == 0 {
				continue
			}
			fmt.Printf("  phase %d: %6d segments, mean SOS %-10s sync fraction %.0f%%\n",
				j, c.Sizes[j], fmt.Sprintf("%.2fms", c.Centroids[j].SOS/1e6),
				c.Centroids[j].SyncFraction*100)
		}
	}

	if *trends {
		ts := res.RankTrends(0.8)
		fmt.Println("\nPer-rank slowdown trends (r² ≥ 0.8, steepest first):")
		for i, tr := range ts {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(ts)-10)
				break
			}
			fmt.Printf("  rank %-5d %+8.1fus/iteration (r²=%.2f)\n", tr.Rank, tr.Slope/1e3, tr.R2)
		}
		if len(ts) == 0 {
			fmt.Println("  none (no rank shows a consistent slope)")
		}
	}

	if *causers {
		cs := res.WaitCausers()
		fmt.Println("\nWait attribution (aggregate peer idle time caused):")
		for i, c := range cs {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(cs)-10)
				break
			}
			fmt.Printf("  rank %-5d caused %8.1fms across %d iterations\n",
				c.Rank, float64(c.CausedWait)/1e6, c.CulpritIterations)
		}
		if len(cs) == 0 {
			fmt.Println("  none (perfectly balanced)")
		}
	}

	if *causality {
		an, err := res.Causality()
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nCross-rank causality analysis:")
		fmt.Printf("  wait states: late-sender %s over %d message(s), late-receiver slack %s over %d, collective wait %s over %d occurrence(s)\n",
			fmtDur(an.LateSenderWait), an.LateSenderCount,
			fmtDur(an.LateReceiverSlack), an.LateReceiverCount,
			fmtDur(an.CollectiveWait), an.CollectiveCount)
		fmt.Println("  root causes (propagated peer wait, worst first):")
		for i, ra := range an.Ranks {
			if i >= 10 {
				fmt.Printf("    ... %d more\n", len(an.Ranks)-10)
				break
			}
			fmt.Printf("    rank %-5d caused %10s across %d segment(s), worst in segment %d\n",
				ra.Rank, fmtDur(ra.CausedWait), ra.Segments, ra.WorstSegment)
		}
		if len(an.Ranks) == 0 {
			fmt.Println("    none (no rank imposes wait on its peers)")
		}
		if len(an.Candidates) > 0 {
			c := an.Candidates[0]
			fmt.Printf("  top candidate: rank %d, segment %d, function %q (caused %s, SOS %s)\n",
				c.Rank, c.Segment, c.Function, fmtDur(c.CausedWait), fmtDur(c.SOS))
		}
		for _, cy := range an.Cycles {
			fmt.Printf("  DEADLOCK CANDIDATE: communication cycle among rank(s) %v (%d unmatched operations)\n",
				cy.Ranks, cy.Ops)
		}
	}

	if *breakdown && len(res.Analysis.Hotspots) > 0 {
		top := res.Analysis.Hotspots[0].Segment
		entries, err := res.Breakdown(top)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nBreakdown of top hotspot (rank %d, iteration %d):\n", top.Rank, top.Index)
		for _, e := range entries {
			fmt.Printf("  %-28s %10.2fms (%5.1f%%)\n", e.Name, float64(e.Exclusive)/1e6, e.Share*100)
		}
	}

	if *calltree {
		tree, err := perfvar.BuildCallTree(tr)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nCalling-context tree:")
		if err := tree.Print(os.Stdout, 3); err != nil {
			fatal(err)
		}
	}

	renderOpts := perfvar.RenderOptions{
		Width: *width, Height: *height, Labels: true,
		Title: fmt.Sprintf("SOS-TIME: %s / %s", rep.TraceName, res.Matrix.RegionName),
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteHTML(f, res.Heatmap(renderOpts)); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nHTML report written to %s\n", *htmlOut)
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
			fatal(err)
		}
		fmt.Printf("\nheatmap written to %s\n", *heatmap)
	}
	if *ansi {
		fmt.Println()
		fmt.Print(perfvar.ANSI(res.Heatmap(perfvar.RenderOptions{Width: 400, Height: 200}), 100))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "varan:", err)
	os.Exit(1)
}

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
