package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"perfvar"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// scale sizes every generated input. fullScale is what the benchmark runs;
// the smoke test shrinks it so that all workloads finish in seconds.
type scale struct {
	fd4Ranks  int          // ranks of each archive-fd4 archive
	synth     archiveShape // the archive-synth archive
	corpus    []archiveShape
	live      liveShape
	serveRate float64 // serve-mix requests per second of -seconds (see serveSequence)
	setupReps int     // set-ups per run; setup_s is their median
}

// archiveShape describes one generated archive.
type archiveShape struct {
	kind  string // fd4, cosmo, wrf or synth
	ranks int    // ranks (fd4, synth) or process-grid side (cosmo, wrf)
	steps int    // iterations or timesteps
	calls int    // kernel calls per iteration (synth)
}

// liveShape describes the live-synth sessions and their feed rate.
type liveShape struct {
	ranks, iterations, calls int
	eventsPerRankTick        int // events each rank advances per 10 ms tick
	sessions                 int // cap on sessions per run
}

// fullScale is the benchmark as recorded in BENCHMARK.json.
var fullScale = scale{
	fd4Ranks: 200,
	synth:    archiveShape{kind: "synth", ranks: 16, steps: 200, calls: 200},
	// 24 archives of four kinds, 0.3–5 MB. The order is the popularity
	// order of the serve-mix request sequence: every kind and a spread of
	// sizes appear among the most requested archives.
	corpus: []archiveShape{
		{kind: "fd4", ranks: 200, steps: 8},
		{kind: "cosmo", ranks: 10, steps: 60},
		{kind: "wrf", ranks: 8, steps: 50},
		{kind: "synth", ranks: 16, steps: 100, calls: 100},
		{kind: "fd4", ranks: 100, steps: 8},
		{kind: "cosmo", ranks: 10, steps: 40},
		{kind: "wrf", ranks: 8, steps: 100},
		{kind: "synth", ranks: 8, steps: 100, calls: 150},
		{kind: "fd4", ranks: 200, steps: 16},
		{kind: "cosmo", ranks: 12, steps: 80},
		{kind: "wrf", ranks: 10, steps: 80},
		{kind: "synth", ranks: 16, steps: 100, calls: 200},
		{kind: "fd4", ranks: 64, steps: 8},
		{kind: "cosmo", ranks: 8, steps: 40},
		{kind: "wrf", ranks: 8, steps: 30},
		{kind: "synth", ranks: 8, steps: 50, calls: 100},
		{kind: "fd4", ranks: 144, steps: 10},
		{kind: "cosmo", ranks: 6, steps: 50},
		{kind: "wrf", ranks: 12, steps: 100},
		{kind: "synth", ranks: 16, steps: 120, calls: 200},
		{kind: "fd4", ranks: 232, steps: 14},
		{kind: "cosmo", ranks: 14, steps: 90},
		{kind: "wrf", ranks: 14, steps: 90},
		{kind: "synth", ranks: 16, steps: 150, calls: 150},
	},
	live: liveShape{ranks: 16, iterations: 160, calls: 200, eventsPerRankTick: 938, sessions: 30},
	// The baseline commit's serve-mix throughput, so that one pass over
	// the sequence takes about -seconds there.
	serveRate: 115,
	setupReps: 15,
}

// subSeed derives the seed of the i-th input of a run.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// fd4Interrupt is the rank the FD4 generator interrupts (paper Fig. 5);
// the analysis must report it as the top hotspot.
const fd4Interrupt = 20

func fd4Config(ranks, iterations int, seed int64) workloads.FD4Config {
	c := workloads.DefaultFD4()
	c.Ranks, c.Iterations, c.Seed = ranks, iterations, seed
	c.InterruptRank = fd4Interrupt
	return c
}

// synthConfig places the injected slow (rank, iteration) from the seed.
func synthConfig(ranks, iterations, calls int, seed int64) workloads.SyntheticConfig {
	c := workloads.DefaultSynthetic()
	c.Ranks, c.Iterations, c.KernelCalls = ranks, iterations, calls
	c.Seed = uint64(seed)
	u := uint64(seed) * 0x9e3779b97f4a7c15
	c.SlowRank = int(u>>33) % ranks
	c.SlowIteration = iterations/4 + int(u>>13)%(iterations/2)
	return c
}

// generate builds the archive bytes of one shape.
func (a archiveShape) generate(seed int64) ([]byte, error) {
	var tr *trace.Trace
	var err error
	switch a.kind {
	case "fd4":
		tr, err = workloads.FD4(fd4Config(a.ranks, a.steps, seed))
	case "cosmo":
		c := workloads.DefaultCosmoSpecs()
		c.GridX, c.GridY, c.Steps, c.Seed = a.ranks, a.ranks, a.steps, seed
		tr, err = workloads.CosmoSpecs(c)
	case "wrf":
		c := workloads.DefaultWRF()
		c.GridX, c.GridY, c.Steps, c.Seed = a.ranks, a.ranks, a.steps, seed
		c.TrapRank = a.ranks*a.ranks/2 + 3
		tr, err = workloads.WRF(c)
	case "synth":
		var buf bytes.Buffer
		if err := synthConfig(a.ranks, a.steps, a.calls, seed).WriteArchive(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("unknown archive kind %q", a.kind)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// golden is the reference output of one archive: the report JSON of the
// materialized analysis, which shares no decode path with the streaming
// engine the workloads drive.
type golden struct {
	report []byte
	res    *perfvar.Result
}

func goldenOf(data []byte) (*golden, error) {
	tr, err := trace.ReadAny(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	res, err := perfvar.Analyze(tr, perfvar.Options{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		return nil, err
	}
	// Keep the report only: the materialized trace would pin the events.
	res.Trace = nil
	return &golden{report: buf.Bytes(), res: res}, nil
}

// writeInputs stores archives as files in dir, so set-up reads them from
// disk as a user would.
func writeInputs(dir string, archives [][]byte) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(archives))
	for i, a := range archives {
		paths[i] = filepath.Join(dir, fmt.Sprintf("archive-%02d.pvt", i))
		if err := os.WriteFile(paths[i], a, 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}
