package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The same names and
// units are listed in BENCHMARK.json; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, emitted by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run. Times are per-op medians of
// a layer's self time; counts are exact.
var perLayer = []metricDef{
	{"trace.decode_ms", "ms"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.events_per_op", "count"},
	{"trace.materialize_ms", "ms"},
	{"trace.frame_decode_ms", "ms"},
	{"callstack.replay_ms", "ms"},
	{"segment.candidates_ms", "ms"},
	{"segment.candidate_segments", "count"},
	{"segment.winner_segments", "count"},
	{"segment.evicted_regions", "count"},
	{"segment.fallback", "count"},
	{"dominant.select_ms", "ms"},
	{"imbalance.analyze_ms", "ms"},
	{"engine.analyze_ms", "ms"},
	{"engine.mpi_bins_ms", "ms"},
	{"engine.j1_over_j2", "ratio"},
	{"engine.staged_over_fused", "ratio"},
	{"report.json_ms", "ms"},
	{"vis.heatmap_ms", "ms"},
	{"vis.png_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"lint.diagnostics", "count"},
	{"causality.build_ms", "ms"},
	{"persist.encode_ms", "ms"},
	{"persist.decode_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.bytes", "bytes"},
	{"serve.hit_ratio", "ratio"},
	{"serve.disk_ratio", "ratio"},
	{"serve.miss_ratio", "ratio"},
	{"serve.shared_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.disk_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.computed", "count"},
	{"ingest.feed_frame_p50_ms", "ms"},
	{"ingest.feed_frame_p95_ms", "ms"},
	{"ingest.spool_ms", "ms"},
	{"online.feed_ms", "ms"},
	{"ingest.finalize_ms", "ms"},
	{"ingest.alerts", "count"},
	{"bench.gen_late_p95_ms", "ms"},
}

func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runConfig is one invocation of a workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	scale   scale
	outDir  string // result and span files
	tmp     string // scratch for inputs, stores and spools; removed at exit
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]string  // sample count per metric, for the printout
	info              map[string]float64 // further numbers worth recording
	notes             []string           // failures and validity problems, one line each
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]string{}, info: map[string]float64{}}
}

// fail records one failed or incorrect operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// record is the result file of one run.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Env       env                    `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]float64     `json:"info"`
	Notes     []string               `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRecord(name string, cfg runConfig, out *outcome) (*record, error) {
	rec := &record{
		Workload:  name,
		Seed:      cfg.seed,
		Trace:     btoi(cfg.traced),
		Seconds:   cfg.seconds.Seconds(),
		Env:       currentEnv(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
		Info:      out.info,
		Notes:     out.notes,
	}
	for _, d := range metricsFor(cfg.traced) {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if rec.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	rec.Info["error_rate"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// env is the machine and runtime a result was measured on.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOGC       string `json:"gogc"`
	CPU        string `json:"cpu"`
}

func currentEnv() env {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default"
	}
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOGC:       gogc,
		CPU:        cpuModel(),
	}
}

// cpuModel returns the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
