// Command pvtdiff compares two runs of an application iteration-by-
// iteration: it analyzes both traces with the perfvar pipeline, aligns
// their iterations (tolerating inserted/removed ones), and reports
// speedups and load-imbalance changes — the before/after-fix workflow.
//
//	pvtdiff -a before.pvt -b after.pvt
//	pvtdiff -a before.pvt -b after.pvt -dominant timestep -top 5
//
// With -json the comparison is emitted as the same RunDelta document the
// perfvard run-history API returns, and -budget adds a pass/fail verdict
// (exit status 1 on fail) — the offline twin of
// POST /api/v1/projects/{name}/runs for CI pipelines without a daemon:
//
//	pvtdiff -a baseline.pvt -b candidate.pvt -json -budget 10 | jq .verdict
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"perfvar"
	"perfvar/internal/baseline"
	"perfvar/internal/compare"
	"perfvar/internal/vis"
)

func main() {
	var (
		pathA    = flag.String("a", "", "baseline trace (required)")
		pathB    = flag.String("b", "", "comparison trace (required)")
		dominant = flag.String("dominant", "", "force this dominant function in both runs")
		top      = flag.Int("top", 5, "show the top-N improved/regressed iterations")
		out      = flag.String("o", "", "write a stacked comparison heatmap (shared color scale) to this PNG")
		asJSON   = flag.Bool("json", false, "emit the RunDelta JSON document instead of text")
		budget   = flag.Float64("budget", 0, "SOS regression budget in percent; adds a pass/fail verdict and exits 1 on fail (implies -json)")
	)
	flag.Parse()
	if *pathA == "" || *pathB == "" {
		fmt.Fprintln(os.Stderr, "pvtdiff: -a and -b are required")
		flag.Usage()
		os.Exit(2)
	}
	if *budget < 0 || math.IsNaN(*budget) || math.IsInf(*budget, 0) {
		fatal(fmt.Errorf("-budget %g: want a non-negative finite percentage", *budget))
	}

	trA, resA := analyze(*pathA, *dominant)
	trB, resB := analyze(*pathB, *dominant)

	if *asJSON || *budget > 0 {
		emitJSON(summarize(trA, resA), summarize(trB, resB), *budget)
		return
	}
	fmt.Printf("A: %s  (%d ranks, dominant %q, %d iterations)\n",
		*pathA, trA.NumRanks(), resA.Matrix.RegionName, resA.Matrix.Iterations())
	fmt.Printf("B: %s  (%d ranks, dominant %q, %d iterations)\n\n",
		*pathB, trB.NumRanks(), resB.Matrix.RegionName, resB.Matrix.Iterations())

	c := perfvar.CompareRuns(resA, resB)
	fmt.Printf("aligned iterations: %d (alignment cost %.2f)\n", c.Matched, c.AlignmentCost)
	fmt.Printf("total SOS speedup (A/B): %.2fx", c.SpeedupTotal)
	switch {
	case c.SpeedupTotal > 1.05:
		fmt.Println("  — B is faster")
	case c.SpeedupTotal < 0.95:
		fmt.Println("  — B is slower")
	default:
		fmt.Println("  — no significant change")
	}
	fmt.Printf("mean imbalance (max/mean): A %.3f -> B %.3f\n\n", c.MeanImbalanceA, c.MeanImbalanceB)

	fmt.Println("per-iteration deltas (B/A mean SOS):")
	shown := 0
	for _, d := range c.Deltas {
		if shown >= *top*2 && *top > 0 {
			fmt.Printf("  ... %d more\n", len(c.Deltas)-shown)
			break
		}
		shown++
		switch {
		case d.IterA == -1:
			fmt.Printf("  B-only iteration %d (mean SOS %s)\n", d.IterB, vis.FormatDuration(d.MeanSOSB))
		case d.IterB == -1:
			fmt.Printf("  A-only iteration %d (mean SOS %s)\n", d.IterA, vis.FormatDuration(d.MeanSOSA))
		default:
			fmt.Printf("  iter %3d -> %3d: %s -> %s (ratio %.2f)\n",
				d.IterA, d.IterB,
				vis.FormatDuration(d.MeanSOSA), vis.FormatDuration(d.MeanSOSB), d.Ratio)
		}
	}
	if best := c.MostImproved(); best.Ratio > 0 {
		fmt.Printf("\nmost improved:  iteration %d (ratio %.2f)\n", best.IterA, best.Ratio)
	}
	if worst := c.MostRegressed(); worst.Ratio > 0 {
		fmt.Printf("most regressed: iteration %d (ratio %.2f)\n", worst.IterA, worst.Ratio)
	}

	if *out != "" {
		img := perfvar.ComparisonHeatmap(resA, resB,
			perfvar.RenderOptions{Width: 1000, Height: 600, Labels: true})
		if err := perfvar.SavePNG(*out, img); err != nil {
			fatal(err)
		}
		fmt.Printf("\ncomparison heatmap written to %s\n", *out)
	}
}

// emitJSON prints the RunDelta document (A as baseline, B as candidate).
// With a positive budget it carries a verdict and a failing delta exits 1,
// so a CI step can gate on the exit status alone.
func emitJSON(base, run compare.RunSummary, budget float64) {
	delta := compare.Delta(base, run)
	doc := map[string]any{
		"baseline": base,
		"run":      run,
		"delta":    delta,
	}
	verdict := ""
	if budget > 0 {
		verdict = "pass"
		if delta.SOSDeltaPct > budget {
			verdict = "fail"
		}
		doc["budget_pct"] = budget
		doc["verdict"] = verdict
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	if verdict == "fail" {
		os.Exit(1)
	}
}

// summarize digests one analyzed run of tr for the delta computation,
// the same way perfvard's run-history endpoints do.
func summarize(tr *perfvar.Trace, res *perfvar.Result) compare.RunSummary {
	profiles, err := baseline.RankProfiles(tr)
	if err != nil {
		fatal(err)
	}
	return compare.Summarize(res.Matrix, baseline.MPIFraction(tr, profiles))
}

// analyze loads and analyzes the trace at path; the trace is kept for
// the profile summary.
func analyze(path, dominant string) (*perfvar.Trace, *perfvar.Result) {
	tr, err := perfvar.LoadTrace(path)
	if err != nil {
		fatal(err)
	}
	res, err := perfvar.Analyze(tr, perfvar.Options{DominantFunction: dominant})
	if err != nil {
		fatal(err)
	}
	return tr, res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pvtdiff:", err)
	os.Exit(1)
}
