// Command perfbench is perfvar's end-to-end benchmark. It measures the
// three user paths — archive → report through the library, upload → JSON
// through the perfvard daemon, and frame → alert through a live session —
// on four seeded workloads, checks every output, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run times calls into each layer's public functions and
// reports per-layer metrics instead, plus a spans file. -compare A B
// labels two sets of result files metric by metric. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gomaxprocs is pinned so that runs on machines with more cores measure
// the same parallelism as the recorded baseline.
const gomaxprocs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "length of the measured phase in seconds, as run_seconds in BENCHMARK.json")
	traced := fs.Int("trace", 0, "0 measures end-to-end metrics; 1 runs the traced per-layer pass")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	compare := fs.Bool("compare", false, "compare two result sets with the bounds in ./BENCHMARK.json: -compare A B (each a result file or a directory of them)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result sets")
			return 2
		}
		if err := runCompare(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench [-workload W] [-seed N] [-seconds S] [-trace 0|1] | -compare A B")
		return 2
	}
	if *workload == "all" {
		return runAll(stdout, stderr, *seed, *seconds, *traced, *outDir)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		scale:   fullScale,
		outDir:  *outDir,
	}
	rec, err := runWorkload(w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeLastLine(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runWorkload sets up a scratch directory, runs one workload, prints its
// metrics, and writes the result file.
func runWorkload(w workload, cfg runConfig, stdout io.Writer) (*record, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	// The scratch directory holds generated inputs, stores and spools; it
	// lives next to the results so a run reads and writes only there.
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	start := time.Now()
	var out *outcome
	if cfg.traced {
		out, err = runTraced(w, cfg)
	} else {
		out, err = w.run(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec, err := newRecord(w.name, cfg, out)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printRecord(stdout, rec, out, time.Since(start))
	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, cfg.seed, btoi(cfg.traced))
	if err := writeJSONFile(filepath.Join(cfg.outDir, name), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// lastLine is the machine-readable summary every run ends with.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func writeLastLine(w io.Writer, rec *record) error {
	b, err := json.Marshal(lastLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printRecord(w io.Writer, rec *record, out *outcome, wall time.Duration) {
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d attempted, %d failed, correct %t (wall %.1fs, GOMAXPROCS %d, nproc %d, %s)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct, wall.Seconds(),
		rec.Env.GOMAXPROCS, rec.Env.NProc, rec.Env.GoVersion)
	for _, d := range metricsFor(rec.Trace == 1) {
		v := rec.Metrics[d.name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s %s\n", d.name, v.Value, v.Unit, out.samples[d.name])
	}
	keys := make([]string, 0, len(rec.Info))
	for k := range rec.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  info %-23s %14.4f\n", k, rec.Info[k])
	}
	for _, note := range out.notes {
		fmt.Fprintf(w, "  note %s\n", note)
	}
}

// runAll runs every workload in a fresh child process of this binary, so
// heap, pools and caches do not carry over between workloads.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, traced int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range allWorkloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-out", outDir)
		var last bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &last)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w.name, err)
			status = 1
			continue
		}
		if _, err := parseLastLine(last.Bytes()); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// parseLastLine decodes the JSON summary on the last non-empty line of a
// run's standard output.
func parseLastLine(out []byte) (*lastLine, error) {
	var line string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			line = s
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if line == "" {
		return nil, errors.New("no output")
	}
	var ll lastLine
	if err := json.Unmarshal([]byte(line), &ll); err != nil {
		return nil, fmt.Errorf("last line is not the JSON summary: %w", err)
	}
	return &ll, nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
