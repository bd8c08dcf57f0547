// Package report formats perfvar analysis results for humans (plain text)
// and machines (JSON). Reports surface the selected dominant function,
// the hotspot list, per-rank and per-iteration summaries, and the trend —
// the textual counterpart of the paper's guided visualization.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/vis"
)

// Report bundles everything a perfvar analysis produced for one trace.
type Report struct {
	TraceName string
	Ranks     int
	Events    int
	Selection dominant.Selection
	Analysis  *imbalance.Analysis
	// MPIFraction is the binned MPI-time share over the run (optional).
	MPIFraction []float64
}

// WriteText renders the human-readable report to w.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "perfvar analysis: %s\n", r.TraceName)
	fmt.Fprintf(&b, "  %d ranks, %d events\n\n", r.Ranks, r.Events)

	d := r.Selection.Dominant
	fmt.Fprintf(&b, "Time-dominant function: %s\n", d.Name)
	fmt.Fprintf(&b, "  invocations: %d (threshold ≥ %d)\n", d.Invocations, r.Selection.Threshold)
	fmt.Fprintf(&b, "  aggregated inclusive time: %s (%.1f%% of run)\n\n",
		vis.FormatDuration(float64(d.AggInclusive)), d.Share*100)

	if len(r.Selection.Ranking) > 1 {
		fmt.Fprintf(&b, "Other candidates (finer segmentation):\n")
		for _, c := range r.Selection.Ranking[1:min(len(r.Selection.Ranking), 6)] {
			fmt.Fprintf(&b, "  %-28s %8d invocations  %s\n",
				c.Name, c.Invocations, vis.FormatDuration(float64(c.AggInclusive)))
		}
		b.WriteString("\n")
	}
	if len(r.Selection.Rejected) > 0 {
		fmt.Fprintf(&b, "Rejected (too few invocations):\n")
		for _, c := range r.Selection.Rejected[:min(len(r.Selection.Rejected), 4)] {
			fmt.Fprintf(&b, "  %-28s %8d invocations  %s\n",
				c.Name, c.Invocations, vis.FormatDuration(float64(c.AggInclusive)))
		}
		b.WriteString("\n")
	}

	a := r.Analysis
	fmt.Fprintf(&b, "SOS-time distribution: median %s, MAD %s\n",
		vis.FormatDuration(a.Median), vis.FormatDuration(a.MAD))

	if a.Trend.Increasing {
		fmt.Fprintf(&b, "TREND: run slows down over time (+%s per iteration, r²=%.2f)\n",
			vis.FormatDuration(a.Trend.Slope), a.Trend.R2)
	}

	if causers := imbalance.TopWaitCausers(imbalance.AttributeWait(a.Matrix)); len(causers) > 0 {
		fmt.Fprintf(&b, "Wait attribution (aggregate peer idle time caused):\n")
		for _, c := range causers[:min(len(causers), 5)] {
			fmt.Fprintf(&b, "  rank %-5d caused %-10s across %d iterations\n",
				c.Rank, vis.FormatDuration(float64(c.CausedWait)), c.CulpritIterations)
		}
	}

	if len(a.Hotspots) == 0 {
		b.WriteString("\nNo hotspots: the run is balanced.\n")
	} else {
		fmt.Fprintf(&b, "\nHotspots (%d segments above threshold):\n", len(a.Hotspots))
		for i, h := range a.Hotspots[:min(len(a.Hotspots), 10)] {
			fmt.Fprintf(&b, "  %2d. rank %-5d iteration %-5d SOS %-10s (score %.1f)\n",
				i+1, h.Segment.Rank, h.Segment.Index,
				vis.FormatDuration(float64(h.Segment.SOS())), h.Score)
		}
		ranks := a.HotspotRanks()
		strs := make([]string, len(ranks))
		for i, rk := range ranks {
			strs[i] = fmt.Sprintf("%d", rk)
		}
		fmt.Fprintf(&b, "  affected ranks: %s\n", strings.Join(strs, ", "))
	}

	if n := len(r.MPIFraction); n > 1 {
		fmt.Fprintf(&b, "\nMPI fraction over run: %.0f%% -> %.0f%%",
			r.MPIFraction[0]*100, r.MPIFraction[n-1]*100)
		if r.MPIFraction[n-1] > r.MPIFraction[0]*1.5 {
			b.WriteString("  (growing: worsening imbalance or communication)")
		}
		b.WriteString("\n")
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// jsonReport is the stable machine-readable shape.
type jsonReport struct {
	Trace    string  `json:"trace"`
	Ranks    int     `json:"ranks"`
	Events   int     `json:"events"`
	Dominant string  `json:"dominantFunction"`
	DomCount int64   `json:"dominantInvocations"`
	DomShare float64 `json:"dominantShare"`
	Median   float64 `json:"sosMedianNS"`
	MAD      float64 `json:"sosMADNS"`
	Trend    struct {
		Slope      float64 `json:"slopeNSPerIteration"`
		R2         float64 `json:"r2"`
		Increasing bool    `json:"increasing"`
	} `json:"trend"`
	Hotspots []jsonHotspot `json:"hotspots"`
	MPIFrac  []float64     `json:"mpiFraction,omitempty"`
}

type jsonHotspot struct {
	Rank      int32   `json:"rank"`
	Iteration int     `json:"iteration"`
	SOSNS     int64   `json:"sosNS"`
	Score     float64 `json:"score"`
}

// WriteJSON renders the machine-readable report to w.
func (r *Report) WriteJSON(w io.Writer) error {
	out := jsonReport{
		Trace:    r.TraceName,
		Ranks:    r.Ranks,
		Events:   r.Events,
		Dominant: r.Selection.Dominant.Name,
		DomCount: r.Selection.Dominant.Invocations,
		DomShare: r.Selection.Dominant.Share,
		Median:   r.Analysis.Median,
		MAD:      r.Analysis.MAD,
		MPIFrac:  r.MPIFraction,
	}
	out.Trend.Slope = r.Analysis.Trend.Slope
	out.Trend.R2 = r.Analysis.Trend.R2
	out.Trend.Increasing = r.Analysis.Trend.Increasing
	for _, h := range r.Analysis.Hotspots {
		score := h.Score
		if score > 1e308 {
			score = 1e308 // JSON cannot carry +Inf
		}
		out.Hotspots = append(out.Hotspots, jsonHotspot{
			Rank:      int32(h.Segment.Rank),
			Iteration: h.Segment.Index,
			SOSNS:     h.Segment.SOS(),
			Score:     score,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
