// Command pvtlint statically analyzes PVTR/pvtt trace archives for
// structural violations and semantic oddities that would silently break
// the perfvar pipeline, reporting every finding (not just the first).
// Beyond the per-rank stream checks, the cross-rank analyzers build the
// message-dependency graph and report late senders, wait-chain root
// causes, and communication cycles that can never complete.
//
//	pvtlint run.pvt                     # text report, all analyzers
//	pvtlint -severity warning run.pvt   # hide info-level findings
//	pvtlint -json run.pvt               # machine-readable report
//	pvtlint -analyzers nesting,msgmatch run.pvt
//	pvtlint -fix fixed.pvt broken.pvt   # write a mechanically repaired copy
//	pvtlint -list                       # analyzer catalog
//
// Archives are linted through the Source API: PVTR files and directory
// archives are swept per rank without materializing the event streams,
// so memory stays bounded by ranks and call depth instead of events
// (text pvtt archives are parsed into memory). Only -fix, which rewrites
// the whole trace, loads it.
//
// The exit status is 0 when no error-severity findings exist, 1 when at
// least one does, and 2 on usage or read failures. Unlike the analysis
// commands, pvtlint reads archives without validation — diagnosing
// invalid traces is its purpose.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perfvar"
	"perfvar/internal/lint"
	"perfvar/internal/parallel"
	"perfvar/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvtlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		severity  = fs.String("severity", "info", "minimum severity to report: info, warning, error")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON")
		fixPath   = fs.String("fix", "", "write a mechanically repaired copy of the (single) input trace to this path")
		analyzers = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		minLat    = fs.Int64("minlatency", int64(lint.DefaultMinLatency), "assumed minimal network latency in ns for clock checks")
		maxPer    = fs.Int("max", 20, "findings printed per analyzer in text mode (0 = all)")
		list      = fs.Bool("list", false, "print the analyzer catalog and exit")
		jobs      = fs.Int("j", 0, "worker goroutines for decoding and per-rank checks (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs > 0 {
		parallel.SetJobs(*jobs)
	}

	if *list {
		printCatalog(stdout)
		return 0
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "pvtlint: no trace archives given")
		fs.Usage()
		return 2
	}
	if *fixPath != "" && len(paths) != 1 {
		fmt.Fprintln(stderr, "pvtlint: -fix requires exactly one input trace")
		return 2
	}

	opts := lint.Options{MinLatency: *minLat}
	if sev, ok := lint.ParseSeverity(*severity); ok {
		opts.MinSeverity = sev
	} else {
		fmt.Fprintf(stderr, "pvtlint: unknown severity %q\n", *severity)
		return 2
	}
	if *analyzers != "" {
		for _, name := range strings.Split(*analyzers, ",") {
			a, ok := lint.Lookup(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "pvtlint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
			opts.Analyzers = append(opts.Analyzers, a)
		}
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pvtlint:", err)
		return 2
	}
	errorsFound := false
	for _, path := range paths {
		res, err := lintFile(path, opts)
		if err != nil {
			return fail(err)
		}
		if res.HasErrors() {
			errorsFound = true
		}
		if *jsonOut {
			if err := res.WriteJSON(stdout); err != nil {
				return fail(err)
			}
		} else {
			if len(paths) > 1 {
				fmt.Fprintf(stdout, "== %s\n", path)
			}
			if err := res.WriteText(stdout, *maxPer); err != nil {
				return fail(err)
			}
		}
		if *fixPath != "" {
			tr, err := trace.ReadAnyFile(path)
			if err != nil {
				return fail(err)
			}
			fixed, rep := lint.Fix(tr, *minLat)
			if err := saveTrace(*fixPath, fixed); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "fix: wrote %s (dropped %d events, synthesized %d leaves, clamped %d sizes, clock offsets applied: %v)\n",
				*fixPath, rep.DroppedEvents, rep.SynthesizedLeaves, rep.ClampedSizes, rep.ClockApplied)
		}
	}
	if errorsFound {
		return 1
	}
	return 0
}

// lintFile sweeps the archive at path through the Source API.
func lintFile(path string, opts lint.Options) (*lint.Result, error) {
	st, err := perfvar.FileSource(path).Open(context.Background())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return lint.RunSource(context.Background(), st, opts)
}

func saveTrace(path string, tr *trace.Trace) error {
	if strings.HasSuffix(path, ".pvtt") {
		return trace.WriteTextFile(path, tr)
	}
	return trace.WriteFile(path, tr)
}

func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "registered analyzers:")
	for _, a := range lint.All() {
		fmt.Fprintf(w, "  %-13s %-8s %-10s %s\n", a.Name(), a.Severity(), a.Scope(), a.Doc())
	}
}
