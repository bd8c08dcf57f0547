package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"perfvar"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
	// inputs returns the archives the traced run analyzes, with the
	// reference output of each.
	inputs func(cfg runConfig) ([][]byte, []*golden, error)
}

// allWorkloads lists every workload; BENCHMARK.json gives the reason for each.
var allWorkloads = []workload{
	{name: "archive-fd4", run: runArchiveFD4, inputs: fd4Inputs},
	{name: "archive-synth", run: runArchiveSynth, inputs: synthInputs},
	{name: "serve-mix", run: runServeMix, inputs: corpusInputs},
	{name: "live-synth", run: runLiveSynth, inputs: liveInputs},
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fd4Inputs generates four paper-scale FD4 archives and checks that the
// reference analysis of each finds the interrupted rank.
func fd4Inputs(cfg runConfig) ([][]byte, []*golden, error) {
	archives := make([][]byte, 4)
	goldens := make([]*golden, 4)
	for i := range archives {
		shape := archiveShape{kind: "fd4", ranks: cfg.scale.fd4Ranks, steps: 8}
		data, err := shape.generate(subSeed(cfg.seed, i))
		if err != nil {
			return nil, nil, err
		}
		g, err := goldenOf(data)
		if err != nil {
			return nil, nil, err
		}
		if hs := g.res.Analysis.Hotspots; len(hs) == 0 || hs[0].Segment.Rank != fd4Interrupt {
			return nil, nil, fmt.Errorf("fd4 archive %d: reference analysis does not rank %d first", i, fd4Interrupt)
		}
		archives[i], goldens[i] = data, g
	}
	return archives, goldens, nil
}

// synthInputs generates the one deep synthetic archive and checks that
// the reference analysis finds the injected slow rank.
func synthInputs(cfg runConfig) ([][]byte, []*golden, error) {
	s := cfg.scale.synth
	data, err := s.generate(subSeed(cfg.seed, 0))
	if err != nil {
		return nil, nil, err
	}
	g, err := goldenOf(data)
	if err != nil {
		return nil, nil, err
	}
	want := synthConfig(s.ranks, s.steps, s.calls, subSeed(cfg.seed, 0)).SlowRank
	if got := int(g.res.Analysis.SlowestRank()); got != want {
		return nil, nil, fmt.Errorf("synthetic archive: reference slowest rank %d, injected %d", got, want)
	}
	return [][]byte{data}, []*golden{g}, nil
}

func runArchiveFD4(cfg runConfig) (*outcome, error) {
	archives, goldens, err := fd4Inputs(cfg)
	if err != nil {
		return nil, err
	}
	return runArchive(cfg, archives, goldens)
}

func runArchiveSynth(cfg runConfig) (*outcome, error) {
	archives, goldens, err := synthInputs(cfg)
	if err != nil {
		return nil, err
	}
	return runArchive(cfg, archives, goldens)
}

// analyzeOp is one archive operation: the streaming analysis of archive
// bytes followed by the JSON report, as `varan -json` and perfvard do.
func analyzeOp(data []byte, buf *bytes.Buffer) error {
	res, err := perfvar.AnalyzeSource(context.Background(), perfvar.ArchiveSource(data), perfvar.Options{})
	if err != nil {
		return err
	}
	buf.Reset()
	return res.Report().WriteJSON(buf)
}

// runArchive drives the archive workloads: a closed loop with one caller,
// rotating over the archives, each report checked byte for byte against
// the reference.
func runArchive(cfg runConfig, archives [][]byte, goldens []*golden) (*outcome, error) {
	out := newOutcome()
	paths, err := writeInputs(filepath.Join(cfg.tmp, "inputs"), archives)
	if err != nil {
		return nil, err
	}

	// Set-up: read the archives from disk, then the first operation.
	var buf bytes.Buffer
	setups := make([]time.Duration, cfg.scale.setupReps)
	for r := range setups {
		t0 := time.Now()
		for i, p := range paths {
			if archives[i], err = os.ReadFile(p); err != nil {
				return nil, err
			}
		}
		if err := analyzeOp(archives[0], &buf); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[r] = time.Since(t0)
		if !bytes.Equal(buf.Bytes(), goldens[0].report) {
			return nil, fmt.Errorf("set-up: report differs from the reference")
		}
	}
	out.setupMetric(setups)

	var lat, done []time.Duration
	probe := startMemProbe()
	start := time.Now()
	for op := 0; time.Since(start) < cfg.seconds; op++ {
		i := op % len(archives)
		t0 := time.Now()
		err := analyzeOp(archives[i], &buf)
		lat = append(lat, time.Since(t0))
		out.attempted++
		switch {
		case err != nil:
			out.fail("op %d: %v", op, err)
		case !bytes.Equal(buf.Bytes(), goldens[i].report):
			out.fail("op %d: report of archive %d differs from the reference", op, i)
		}
		done = append(done, time.Since(start))
	}
	probe.finish(out, out.attempted)

	out.rateMetric(done)
	out.latencyMetrics(lat, quietestTenth)
	var events int
	for _, g := range goldens {
		events += g.res.Report().Events
	}
	out.info["events_per_op"] = float64(events) / float64(len(goldens))
	return out, nil
}
