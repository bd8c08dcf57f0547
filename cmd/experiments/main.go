// Command experiments regenerates the data behind every figure of the
// paper's evaluation plus the repository's ablation studies. Each figure
// runs the corresponding workload (at paper scale by default), applies the
// perfvar pipeline, prints the series/rows the paper reports, and states
// the pass criterion derived from the paper's description.
//
//	experiments -fig all -out ./figures
//	experiments -fig 4
//	experiments -fig ablations
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"perfvar"
	"perfvar/internal/baseline"
	"perfvar/internal/callstack"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/lint"
	"perfvar/internal/metric"
	"perfvar/internal/online"
	"perfvar/internal/sim"
	"perfvar/internal/stats"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
	"perfvar/internal/workloads"
)

func main() {
	var (
		fig = flag.String("fig", "all", "figure to regenerate: 1-6, ablations, or all")
		out = flag.String("out", "", "directory for rendered images (omit to skip rendering)")
	)
	flag.Parse()
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	runners := map[string]func(outDir string) error{
		"1": fig1, "2": fig2, "3": fig3,
		"4": fig4, "5": fig5, "6": fig6,
		"ablations": ablations,
	}
	order := []string{"1", "2", "3", "4", "5", "6", "ablations"}

	var selected []string
	if *fig == "all" {
		selected = order
	} else {
		for _, f := range strings.Split(*fig, ",") {
			if _, ok := runners[f]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", f)
				os.Exit(2)
			}
			selected = append(selected, f)
		}
	}
	for _, f := range selected {
		if err := runners[f](*out); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", f, err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// failures counts failed checks; a non-zero count makes the process exit
// with status 1 so the harness can gate CI on it.
var failures int

func check(name string, ok bool) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		failures++
	}
	fmt.Printf("  [%s] %s\n", status, name)
}

// lintClean gates every generated case-study trace on the static
// analyzers before the pipeline consumes it: a seeded workload that
// trips an error-severity lint finding would silently corrupt the
// figures downstream.
func lintClean(tr *perfvar.Trace) {
	res := lint.Run(tr, lint.Options{})
	if res.HasErrors() {
		res.WriteText(os.Stdout, 5)
	}
	check(fmt.Sprintf("trace %q lints clean (%d analyzers, no error-severity findings)",
		tr.Name, len(res.Analyzers)), !res.HasErrors())
}

// fig1 reproduces Figure 1: inclusive vs. exclusive time of an invocation.
func fig1(string) error {
	header("Figure 1 — inclusive vs. exclusive time (foo calls bar)")
	tr := trace.New("fig1", 1)
	foo := tr.AddRegion("foo", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("bar", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, foo))
	tr.Append(0, trace.Enter(2, bar))
	tr.Append(0, trace.Leave(4, bar))
	tr.Append(0, trace.Leave(6, foo))
	prof, err := callstack.ProfileOf(context.Background(), tr)
	if err != nil {
		return err
	}
	incl, excl := prof.Regions[foo].SumInclusive, prof.Regions[foo].SumExclusive
	fmt.Printf("  foo: inclusive = %d, exclusive = %d (paper: 6 and 4)\n", incl, excl)
	check("inclusive time of foo = 6", incl == 6)
	check("exclusive time of foo = 4", excl == 4)
	return nil
}

// fig2 reproduces Figure 2: dominant-function selection on the toy trace.
func fig2(string) error {
	header("Figure 2 — time-dominant function selection (3 ranks: main,i,a,b,c)")
	tr := workloads.Fig2Trace()
	sel, err := dominant.Select(tr, dominant.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("  %-8s %12s %12s\n", "function", "invocations", "aggregated")
	print := func(c dominant.Candidate, tag string) {
		fmt.Printf("  %-8s %12d %12d steps  %s\n",
			c.Name, c.Invocations, c.AggInclusive/workloads.ToyStep, tag)
	}
	for _, c := range sel.Rejected {
		print(c, "(rejected: < 2p invocations)")
	}
	for i, c := range sel.Ranking {
		tag := ""
		if i == 0 {
			tag = "<= time-dominant"
		}
		print(c, tag)
	}
	check("main rejected with 54 steps / 3 invocations",
		len(sel.Rejected) > 0 && sel.Rejected[0].Name == "main" &&
			sel.Rejected[0].AggInclusive == 54*workloads.ToyStep)
	check("a selected with 36 steps / 9 invocations",
		sel.Dominant.Name == "a" && sel.Dominant.AggInclusive == 36*workloads.ToyStep &&
			sel.Dominant.Invocations == 9)
	return nil
}

// fig3 reproduces Figure 3: segment durations vs. SOS-times.
func fig3(string) error {
	header("Figure 3 — segment durations vs. SOS-times (calc + MPI barrier)")
	tr := workloads.Fig3Trace()
	res, err := perfvar.Analyze(tr, perfvar.Options{})
	if err != nil {
		return err
	}
	m := res.Matrix
	fmt.Println("  segment durations (inclusive, steps):")
	for rank := range m.PerRank {
		var row []string
		for _, s := range m.PerRank[rank] {
			row = append(row, fmt.Sprintf("%d", s.Inclusive()/workloads.ToyStep))
		}
		fmt.Printf("    Process %d: %s\n", rank, strings.Join(row, " "))
	}
	fmt.Println("  SOS-times (steps):")
	for rank := range m.PerRank {
		var row []string
		for _, s := range m.PerRank[rank] {
			row = append(row, fmt.Sprintf("%d", s.SOS()/workloads.ToyStep))
		}
		fmt.Printf("    Process %d: %s\n", rank, strings.Join(row, " "))
	}
	check("iteration durations equal across ranks (6,3,5)",
		m.PerRank[0][0].Inclusive() == 6*workloads.ToyStep &&
			m.PerRank[1][0].Inclusive() == 6*workloads.ToyStep &&
			m.PerRank[0][1].Inclusive() == 3*workloads.ToyStep)
	check("first-iteration SOS-times are 5/3/1 for ranks 0/1/2",
		m.PerRank[0][0].SOS() == 5*workloads.ToyStep &&
			m.PerRank[1][0].SOS() == 3*workloads.ToyStep &&
			m.PerRank[2][0].SOS() == 1*workloads.ToyStep)
	return nil
}

// fig4 reproduces the COSMO-SPECS case study (Fig. 4).
func fig4(outDir string) error {
	header("Figure 4 — COSMO-SPECS load imbalance (100 ranks, growing cloud)")
	cfg := perfvar.DefaultCosmoSpecs()
	tr, err := perfvar.GenerateCosmoSpecs(cfg)
	if err != nil {
		return err
	}
	lintClean(tr)
	res, err := perfvar.Analyze(tr, perfvar.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("  dominant function: %s (%d invocations)\n",
		res.Selection.Dominant.Name, res.Selection.Dominant.Invocations)

	frac := res.MPIFraction
	fmt.Println("  MPI fraction over run (Fig. 4a series):")
	fmt.Printf("    %s\n", fracSeries(frac))

	hot := res.Analysis.HotspotRanks()
	fmt.Printf("  hotspot ranks (Fig. 4b): %v\n", hot)
	fmt.Printf("  slowest rank: %d (paper: Process 54)\n", res.Analysis.SlowestRank())
	fmt.Printf("  SOS trend: +%s/iteration (r²=%.2f)\n",
		vis.FormatDuration(res.Analysis.Trend.Slope), res.Analysis.Trend.R2)

	wantHot := []perfvar.Rank{44, 45, 54, 55, 64, 65}
	gotHot := map[perfvar.Rank]bool{}
	for _, r := range hot {
		gotHot[r] = true
	}
	sameSet := len(gotHot) == len(wantHot)
	for _, r := range wantHot {
		if !gotHot[r] {
			sameSet = false
		}
	}
	check("hotspot set = {44,45,54,55,64,65}", sameSet)
	check("rank 54 is the worst process", res.Analysis.SlowestRank() == 54)
	check("MPI fraction grows over the run", frac[len(frac)-1] > 2*frac[0])
	check("segment durations increase over time", res.Analysis.Trend.Increasing)

	if outDir != "" {
		curve := vis.LineChart([][]float64{frac}, 0, 1, vis.RenderOptions{
			Width: 700, Height: 240, Labels: true, Title: "MPI FRACTION OVER RUN (FIG 4A)",
		})
		if err := vis.SavePNG(filepath.Join(outDir, "fig4_mpifraction.png"), curve); err != nil {
			return err
		}
	}
	return renderCaseStudy(outDir, "fig4", tr, res, "")
}

// fig5 reproduces the COSMO-SPECS+FD4 case study (Fig. 5).
func fig5(outDir string) error {
	header("Figure 5 — COSMO-SPECS+FD4 process interruption (200 ranks)")
	cfg := perfvar.DefaultFD4()
	tr, err := perfvar.GenerateFD4(cfg)
	if err != nil {
		return err
	}
	lintClean(tr)
	res, err := perfvar.Analyze(tr, perfvar.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("  coarse dominant function: %s\n", res.Selection.Dominant.Name)
	top := res.Analysis.Hotspots[0].Segment
	fmt.Printf("  coarse hotspot (Fig. 5b): rank %d, iteration %d, SOS %s\n",
		top.Rank, top.Index, vis.FormatDuration(float64(top.SOS())))
	check("coarse pass flags rank 20", top.Rank == perfvar.Rank(cfg.InterruptRank))

	fine, err := res.Refine(perfvar.Options{})
	if err != nil {
		return err
	}
	ftop := fine.Analysis.Hotspots[0].Segment
	fmt.Printf("  fine segmentation at: %s\n", fine.Matrix.RegionName)
	fmt.Printf("  fine hotspot (Fig. 5c): rank %d, invocation %d, SOS %s\n",
		ftop.Rank, ftop.Index, vis.FormatDuration(float64(ftop.SOS())))
	check("fine pass isolates the single interrupted invocation",
		ftop.Rank == perfvar.Rank(cfg.InterruptRank) && ftop.Index == cfg.InterruptedSegmentIndex())

	// Root-cause validation: PAPI_TOT_CYC of the interrupted invocation.
	cyc, _ := tr.MetricByName(sim.CycleCounterName)
	deltas, err := metric.SegmentDeltas(tr, fine.Matrix, cyc.ID)
	if err != nil {
		return err
	}
	badRatio := deltas[ftop.Rank][ftop.Index] / float64(ftop.Inclusive())
	var peers []float64
	for rank := range deltas {
		for i, d := range deltas[rank] {
			if rank == int(ftop.Rank) && i == ftop.Index {
				continue
			}
			if w := fine.Matrix.PerRank[rank][i].Inclusive(); w > 0 {
				peers = append(peers, d/float64(w))
			}
		}
	}
	med := stats.Median(peers)
	fmt.Printf("  cycles per wall-ns: interrupted %.2f vs peer median %.2f (PAPI_TOT_CYC check)\n",
		badRatio, med)
	check("interrupted invocation has low assigned CPU cycles", badRatio < med/2)

	return renderCaseStudy(outDir, "fig5", tr, fine, "")
}

// fig6 reproduces the WRF case study (Fig. 6).
func fig6(outDir string) error {
	header("Figure 6 — WRF floating-point exceptions (64 ranks, CONUS 12km)")
	cfg := perfvar.DefaultWRF()
	tr, err := perfvar.GenerateWRF(cfg)
	if err != nil {
		return err
	}
	lintClean(tr)
	res, err := perfvar.Analyze(tr, perfvar.Options{})
	if err != nil {
		return err
	}
	hot := res.Analysis.HotspotRanks()
	fmt.Printf("  dominant function: %s\n", res.Selection.Dominant.Name)
	fmt.Printf("  hotspot ranks (Fig. 6b): %v (paper: Process 39)\n", hot)

	// Init phase length.
	initRegion, _ := tr.RegionByName("wrf_init")
	var initEnd trace.Time
	for rank := range tr.Procs {
		for _, ev := range tr.Procs[rank].Events {
			if ev.Kind == trace.KindLeave && ev.Region == initRegion.ID && ev.Time > initEnd {
				initEnd = ev.Time
			}
		}
	}
	fmt.Printf("  init+IO phase: %s (paper: about 11 seconds)\n", vis.FormatDuration(float64(initEnd)))

	_, last := tr.Span()
	mpiFrac := imbalance.ParadigmFractionBetween(tr, trace.ParadigmMPI, initEnd, last)
	fmt.Printf("  MPI fraction of iteration phase: %.0f%% (paper: 25%%)\n", mpiFrac*100)

	// Counter correlation (Fig. 6c).
	traps, _ := tr.MetricByName(workloads.MicrotrapCounterName)
	totals := metric.RankTotals(tr, traps.ID)
	meanSOS := make([]float64, tr.NumRanks())
	for rank := range meanSOS {
		meanSOS[rank] = res.Analysis.Ranks[rank].MeanSOS
	}
	r := stats.Pearson(meanSOS, totals)
	fmt.Printf("  Pearson r(per-rank SOS, %s) = %.3f\n", workloads.MicrotrapCounterName, r)

	// Second root-cause signal: the trapped rank's IPC collapses.
	cyc, _ := tr.MetricByName(sim.CycleCounterName)
	ins, _ := tr.MetricByName(sim.InstructionCounterName)
	cycTotals := metric.RankTotals(tr, cyc.ID)
	insTotals := metric.RankTotals(tr, ins.ID)
	ipc := func(rank int) float64 { return insTotals[rank] / cycTotals[rank] }
	var peerIPC []float64
	for rank := 0; rank < tr.NumRanks(); rank++ {
		if rank != cfg.TrapRank {
			peerIPC = append(peerIPC, ipc(rank))
		}
	}
	fmt.Printf("  IPC: rank %d = %.2f vs peer median %.2f (PAPI_TOT_INS/PAPI_TOT_CYC)\n",
		cfg.TrapRank, ipc(cfg.TrapRank), stats.Median(peerIPC))
	check("trapped rank's IPC well below peers", ipc(cfg.TrapRank) < 0.8*stats.Median(peerIPC))

	check("rank 39 flagged as hotspot", len(hot) > 0 && hot[0] == perfvar.Rank(cfg.TrapRank))
	check("init phase about 11 s", initEnd > 10*trace.Second && initEnd < 13*trace.Second)
	check("iteration-phase MPI fraction near 25%", mpiFrac > 0.10 && mpiFrac < 0.45)
	check("SOS matches the FP-exception counter (r > 0.9)", r > 0.9)

	return renderCaseStudy(outDir, "fig6", tr, res, workloads.MicrotrapCounterName)
}

// ablations quantifies the design choices.
func ablations(string) error {
	header("Ablations — why the paper's design choices matter")

	// A: SOS vs plain inclusive time (culprit identification).
	cfg := perfvar.DefaultCosmoSpecs()
	cfg.GridX, cfg.GridY, cfg.Steps = 6, 6, 20
	cfg.CloudCenterCol, cfg.CloudCenterRow = 2.4, 3.0
	tr, err := perfvar.GenerateCosmoSpecs(cfg)
	if err != nil {
		return err
	}
	res, err := perfvar.Analyze(tr, perfvar.Options{})
	if err != nil {
		return err
	}
	_, hottest := cfg.CloudRanks()
	sosHits, inclHits := 0, 0
	iters := res.Matrix.Iterations()
	var sosMargin, inclMargin float64
	for it := 0; it < iters; it++ {
		if baseline.CulpritBySOS(res.Matrix, it) == perfvar.Rank(hottest) {
			sosHits++
		}
		if baseline.CulpritByInclusive(res.Matrix, it) == perfvar.Rank(hottest) {
			inclHits++
		}
		sosMargin += baseline.CulpritMargin(res.Matrix, it, true)
		inclMargin += baseline.CulpritMargin(res.Matrix, it, false)
	}
	fmt.Printf("  A. culprit identification over %d iterations (true culprit: rank %d):\n", iters, hottest)
	fmt.Printf("     SOS-time:       %d/%d correct, mean margin %.2f\n", sosHits, iters, sosMargin/float64(iters))
	fmt.Printf("     inclusive time: %d/%d correct, mean margin %.3f\n", inclHits, iters, inclMargin/float64(iters))
	check("SOS finds the culprit in every iteration", sosHits == iters)
	check("SOS margin dwarfs the inclusive margin", sosMargin > 10*inclMargin)

	// B: the 2p invocation rule vs plain max-inclusive selection.
	sel, err := dominant.Select(tr, dominant.Options{})
	if err != nil {
		return err
	}
	naive := "main" // highest aggregated inclusive time overall
	fmt.Printf("  B. dominant-function rule: 2p threshold selects %q;"+
		" plain max-inclusive would select %q (%d invocations -> no segmentation)\n",
		sel.Dominant.Name, naive, tr.NumRanks())
	segsMain, err := segment.Compute(tr, mustRegion(tr, "main"), nil)
	if err != nil {
		return err
	}
	fmt.Printf("     segments per rank: %s=%d, main=%d\n",
		sel.Dominant.Name, len(res.Matrix.PerRank[0]), len(segsMain.PerRank[0]))
	check("2p rule yields a real segmentation (many segments per rank)",
		len(res.Matrix.PerRank[0]) > 1 && len(segsMain.PerRank[0]) == 1)

	// C: representative clustering hides transient hotspots.
	// A long run: the single 40 ms interruption disappears inside the
	// aggregate profile (as it would in the paper's hour-scale runs), so
	// clustering on profiles cannot see it.
	fcfg := perfvar.DefaultFD4()
	fcfg.Ranks = 64
	fcfg.Iterations = 24
	ftr, err := perfvar.GenerateFD4(fcfg)
	if err != nil {
		return err
	}
	profiles, err := baseline.RankProfiles(ftr)
	if err != nil {
		return err
	}
	reps, _ := baseline.ClusterRepresentatives(profiles, 0.25)
	retained := baseline.Retained(reps, perfvar.Rank(fcfg.InterruptRank))
	fres, err := perfvar.Analyze(ftr, perfvar.Options{})
	if err != nil {
		return err
	}
	found := len(fres.Analysis.Hotspots) > 0 &&
		fres.Analysis.Hotspots[0].Segment.Rank == perfvar.Rank(fcfg.InterruptRank)
	fmt.Printf("  C. representative clustering keeps %d of %d ranks; interrupted rank %d retained: %v\n",
		len(reps), fcfg.Ranks, fcfg.InterruptRank, retained)
	fmt.Printf("     perfvar SOS analysis flags rank %d: %v\n", fcfg.InterruptRank, found)
	check("SOS analysis finds the interruption", found)
	check("clustering-based reduction would drop the interrupted rank", !retained)

	// D: in-situ (online) detection — the workflow the paper calls
	// feasible but could not implement in its measurement suite.
	dom, _ := ftr.RegionByName("iteration")
	oa, err := online.Config{Ranks: ftr.NumRanks(), Regions: ftr.Regions, Dominant: dom.ID}.NewAnalyzer()
	if err != nil {
		return err
	}
	alerts, err := oa.FeedTrace(ftr)
	if err != nil {
		return err
	}
	hit := false
	firstAlertAt := 0
	for _, al := range alerts {
		if al.Segment.Rank == perfvar.Rank(fcfg.InterruptRank) {
			hit = true
			firstAlertAt = al.SeenSegments
			break
		}
	}
	total := oa.SeenSegments()
	fmt.Printf("  D. online (in-situ) detection: %d alerts; interruption alerted after %d of %d segments (%.0f%% of run)\n",
		len(alerts), firstAlertAt, total, float64(firstAlertAt)/float64(total)*100)
	check("online detector raises the interruption alert mid-run", hit && firstAlertAt < total)
	return nil
}

func mustRegion(tr *perfvar.Trace, name string) trace.RegionID {
	r, ok := tr.RegionByName(name)
	if !ok {
		panic("region not found: " + name)
	}
	return r.ID
}

func fracSeries(frac []float64) string {
	var parts []string
	for _, f := range frac {
		parts = append(parts, fmt.Sprintf("%.0f%%", f*100))
	}
	return strings.Join(parts, " ")
}

// renderCaseStudy writes the timeline and SOS-heatmap images (plus a
// counter heatmap if counterName is set) when an output directory is
// configured.
func renderCaseStudy(outDir, prefix string, tr *perfvar.Trace, res *perfvar.Result, counterName string) error {
	if outDir == "" {
		return nil
	}
	opts := perfvar.RenderOptions{Width: 1000, Height: 500, Labels: true}
	opts.Title = "TIMELINE: " + tr.Name
	if err := perfvar.SavePNG(filepath.Join(outDir, prefix+"_timeline.png"), perfvar.Timeline(tr, opts)); err != nil {
		return err
	}
	opts.Title = "SOS-TIME: " + tr.Name + " / " + res.Matrix.RegionName
	if err := perfvar.SavePNG(filepath.Join(outDir, prefix+"_sos.png"), res.Heatmap(opts)); err != nil {
		return err
	}
	if counterName != "" {
		opts.Title = "COUNTER: " + counterName
		img, err := perfvar.CounterHeatmap(tr, counterName, opts)
		if err != nil {
			return err
		}
		if err := perfvar.SavePNG(filepath.Join(outDir, prefix+"_counter.png"), img); err != nil {
			return err
		}
	}
	fmt.Printf("  images written to %s/%s_*.png\n", outDir, prefix)
	return nil
}
