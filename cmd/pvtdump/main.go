// Command pvtdump inspects trace archives: definitions, per-rank
// statistics, raw event listings, the calling-context tree, and clock
// sanity checks.
//
//	pvtdump -trace run.pvt                    # summary
//	pvtdump -trace run.pvt -defs              # region/metric tables
//	pvtdump -trace run.pvt -events -rank 3 -max 50
//	pvtdump -trace run.pvt -calltree -depth 3
//	pvtdump -trace run.pvt -clockcheck
//	pvtdump -trace run.pvt -lint
//
// Every view streams the archive per rank from one open handle; PVTR
// files and directory archives are never loaded whole (text pvtt
// archives are parsed into memory). A trace that fails validation is
// still dumped, with a warning, so that damaged traces can be inspected;
// -lint appends the full static-analysis report (see cmd/pvtlint) to the
// dump instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"perfvar"
	"perfvar/internal/callstack"
	"perfvar/internal/clockfix"
	"perfvar/internal/lint"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvtdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath  = fs.String("trace", "", "input trace: a PVTR or pvtt file, or a directory archive (required)")
		defs       = fs.Bool("defs", false, "print region and metric definitions")
		events     = fs.Bool("events", false, "print raw events")
		rank       = fs.Int("rank", 0, "rank for -events")
		maxEvents  = fs.Int("max", 40, "event cap for -events (0 = all)")
		calltree   = fs.Bool("calltree", false, "print the calling-context tree")
		depth      = fs.Int("depth", 3, "depth cap for -calltree (-1 = all)")
		clockcheck = fs.Bool("clockcheck", false, "check for clock-skew causality violations")
		minLatency = fs.Int64("minlatency", 1000, "assumed minimal network latency in ns for -clockcheck and -lint")
		runLint    = fs.Bool("lint", false, "append the static-analysis report (all analyzers)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *tracePath == "" {
		fmt.Fprintln(stderr, "pvtdump: -trace is required")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pvtdump:", err)
		return 1
	}

	ctx := context.Background()
	st, err := perfvar.FileSource(*tracePath).Open(ctx)
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	h, nranks := st.Header(), st.NumRanks()

	// One pass validates the streams and tallies each rank's event count
	// and first and last timestamps. A stream that fails to decode fails
	// the dump; a validation failure only warns.
	type tally struct {
		events      int
		first, last trace.Time
	}
	tallies := make([]tally, nranks)
	tallied := func(rank int, fn func(trace.Event) error) error {
		t := &tallies[rank]
		return st.StreamRank(rank, func(ev trace.Event) error {
			if t.events == 0 {
				t.first = ev.Time
			}
			t.last = ev.Time
			t.events++
			return fn(ev)
		})
	}
	if verr := trace.ValidateStreams(h, nranks, tallied); verr != nil {
		if !errors.Is(verr, trace.ErrInvalid) {
			return fail(verr)
		}
		if !*runLint {
			fmt.Fprintf(stderr, "pvtdump: warning: trace fails validation (%v); run with -lint for the full diagnosis\n", verr)
		}
	}

	var all tally
	for _, t := range tallies {
		switch {
		case t.events == 0:
		case all.events == 0:
			all = t
		default:
			all = tally{all.events + t.events, min(all.first, t.first), max(all.last, t.last)}
		}
	}
	fmt.Fprintf(stdout, "trace %q: %d ranks, %d events, %d regions, %d metrics, span %s\n",
		h.Name, nranks, all.events, len(h.Regions), len(h.Metrics),
		vis.FormatDuration(float64(all.last-all.first)))

	if *defs {
		fmt.Fprintln(stdout, "\nregions:")
		for _, r := range h.Regions {
			fmt.Fprintf(stdout, "  %3d  %-30s %-8s %s\n", r.ID, r.Name, r.Paradigm, r.Role)
		}
		fmt.Fprintln(stdout, "metrics:")
		for _, m := range h.Metrics {
			fmt.Fprintf(stdout, "  %3d  %-40s %-10s %s\n", m.ID, m.Name, m.Unit, m.Mode)
		}
	}

	if *events {
		if *rank < 0 || *rank >= nranks {
			return fail(fmt.Errorf("rank %d out of range", *rank))
		}
		fmt.Fprintf(stdout, "\nevents of rank %d:\n", *rank)
		printed := 0
		err := st.StreamRank(*rank, func(ev trace.Event) error {
			if *maxEvents > 0 && printed == *maxEvents {
				return trace.ErrStopStream
			}
			printEvent(stdout, h, ev)
			printed++
			return nil
		})
		if err != nil {
			return fail(err)
		}
		if n := tallies[*rank].events; printed < n {
			fmt.Fprintf(stdout, "  ... %d more\n", n-printed)
		}
	}

	if *calltree {
		tree, err := callstack.CallTreeOf(h.Regions, nranks, st.StreamRank)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "\ncalling-context tree:")
		if err := tree.Print(stdout, *depth); err != nil {
			return fail(err)
		}
	}

	if *clockcheck {
		pairs, err := clockfix.StreamPairs(ctx, nranks, st.StreamRank)
		if err != nil {
			return fail(err)
		}
		violations := clockfix.ViolationsFromPairs(pairs, *minLatency)
		fmt.Fprintf(stdout, "\nclock check (min latency %d ns): %d causality violations\n",
			*minLatency, len(violations))
		for i, v := range violations {
			if i >= 10 {
				fmt.Fprintf(stdout, "  ... %d more\n", len(violations)-10)
				break
			}
			fmt.Fprintf(stdout, "  rank %d -> %d (tag %d): sent %d, received %d (deficit %s)\n",
				v.Src, v.Dst, v.Tag, v.SendTime, v.RecvTime, vis.FormatDuration(float64(v.Deficit)))
		}
		if len(violations) > 0 {
			fmt.Fprintln(stdout, "  hint: run the analysis on a corrected trace (perfvar.CorrectClocks)")
		}
	}

	if *runLint {
		fmt.Fprintln(stdout)
		res, err := lint.RunSource(ctx, st, lint.Options{MinLatency: *minLatency})
		if err != nil {
			return fail(err)
		}
		if err := res.WriteText(stdout, 20); err != nil {
			return fail(err)
		}
		if res.HasErrors() {
			return 1
		}
	}
	return 0
}

func printEvent(w io.Writer, h *trace.Header, ev trace.Event) {
	switch ev.Kind {
	case trace.KindEnter, trace.KindLeave:
		fmt.Fprintf(w, "  %12d  %-6s %s\n", ev.Time, ev.Kind, h.Regions[ev.Region].Name)
	case trace.KindMetric:
		fmt.Fprintf(w, "  %12d  metric %s = %g\n", ev.Time, h.Metrics[ev.Metric].Name, ev.Value)
	case trace.KindSend:
		fmt.Fprintf(w, "  %12d  send   -> rank %d (tag %d, %d bytes)\n", ev.Time, ev.Peer, ev.Tag, ev.Bytes)
	case trace.KindRecv:
		fmt.Fprintf(w, "  %12d  recv   <- rank %d (tag %d, %d bytes)\n", ev.Time, ev.Peer, ev.Tag, ev.Bytes)
	}
}
