package perfvar

// Benchmark harness: one benchmark per paper figure plus the ablation
// studies and component micro-benchmarks. Each figure benchmark runs the
// full pipeline on the paper-scale workload and reports the headline
// quantities of the figure via b.ReportMetric, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the evaluation's numbers alongside the timing data (see
// EXPERIMENTS.md for the paper-vs-measured record).

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"perfvar/internal/baseline"
	"perfvar/internal/callstack"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/metric"
	"perfvar/internal/online"
	"perfvar/internal/sim"
	"perfvar/internal/stats"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
	"perfvar/internal/workloads"
)

// --- Figure 1: inclusive vs exclusive time ------------------------------

func BenchmarkFig1InclusiveExclusive(b *testing.B) {
	tr := trace.New("fig1", 1)
	foo := tr.AddRegion("foo", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("bar", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, foo))
	tr.Append(0, trace.Enter(2, bar))
	tr.Append(0, trace.Leave(4, bar))
	tr.Append(0, trace.Leave(6, foo))
	b.ResetTimer()
	var incl, excl trace.Duration
	for i := 0; i < b.N; i++ {
		rep := callstack.NewStreamReplay(0, len(tr.Regions))
		for _, ev := range tr.Procs[0].Events {
			if err := rep.Feed(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := rep.Finish(); err != nil {
			b.Fatal(err)
		}
		rp := callstack.ProfileFromStreams(len(tr.Regions), []*callstack.StreamReplay{rep}).Regions[foo]
		incl, excl = rp.SumInclusive, rp.SumExclusive
	}
	b.ReportMetric(float64(incl), "inclusive")
	b.ReportMetric(float64(excl), "exclusive")
}

// --- Figure 2: dominant-function selection ------------------------------

func BenchmarkFig2DominantSelection(b *testing.B) {
	tr := workloads.Fig2Trace()
	b.ResetTimer()
	var sel dominant.Selection
	for i := 0; i < b.N; i++ {
		var err error
		sel, err = dominant.Select(tr, dominant.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if sel.Dominant.Name != "a" {
		b.Fatalf("dominant = %q", sel.Dominant.Name)
	}
	b.ReportMetric(float64(sel.Dominant.Invocations), "a-invocations")
	b.ReportMetric(float64(sel.Dominant.AggInclusive/workloads.ToyStep), "a-agg-steps")
}

// --- Figure 3: SOS-time computation -------------------------------------

func BenchmarkFig3SOSTime(b *testing.B) {
	tr := workloads.Fig3Trace()
	r, _ := tr.RegionByName("a")
	b.ResetTimer()
	var m *segment.Matrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = segment.Compute(tr, r.ID, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	// First iteration SOS-times 5/3/1 (paper Fig. 3 bottom).
	b.ReportMetric(float64(m.PerRank[0][0].SOS()/workloads.ToyStep), "sos-rank0")
	b.ReportMetric(float64(m.PerRank[1][0].SOS()/workloads.ToyStep), "sos-rank1")
	b.ReportMetric(float64(m.PerRank[2][0].SOS()/workloads.ToyStep), "sos-rank2")
}

// --- Figure 4: COSMO-SPECS load imbalance --------------------------------

func BenchmarkFig4CosmoSpecs(b *testing.B) {
	tr, err := GenerateCosmoSpecs(DefaultCosmoSpecs())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res, err = Analyze(tr, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	hot := res.Analysis.HotspotRanks()
	b.ReportMetric(float64(len(hot)), "hot-ranks")
	b.ReportMetric(float64(res.Analysis.SlowestRank()), "worst-rank")
	b.ReportMetric(res.MPIFraction[0]*100, "mpi-pct-first")
	b.ReportMetric(res.MPIFraction[len(res.MPIFraction)-1]*100, "mpi-pct-last")
}

func BenchmarkFig4Generate(b *testing.B) {
	cfg := DefaultCosmoSpecs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCosmoSpecs(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: FD4 process interruption ----------------------------------

func BenchmarkFig5FD4Coarse(b *testing.B) {
	cfg := DefaultFD4()
	tr, err := GenerateFD4(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res, err = Analyze(tr, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	top := res.Analysis.Hotspots[0].Segment
	b.ReportMetric(float64(top.Rank), "hotspot-rank")
	b.ReportMetric(float64(top.Index), "hotspot-iteration")
}

func BenchmarkFig5FD4Fine(b *testing.B) {
	cfg := DefaultFD4()
	tr, err := GenerateFD4(cfg)
	if err != nil {
		b.Fatal(err)
	}
	coarse, err := Analyze(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fine *Result
	for i := 0; i < b.N; i++ {
		fine, err = coarse.Refine(Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	ftop := fine.Analysis.Hotspots[0].Segment
	b.ReportMetric(float64(ftop.Rank), "hotspot-rank")
	b.ReportMetric(float64(ftop.Index), "hotspot-invocation")

	// Root-cause metric: cycle ratio of the interrupted invocation vs
	// peer median (≪ 1 proves the OS interruption).
	cyc, _ := tr.MetricByName(sim.CycleCounterName)
	deltas, err := metric.SegmentDeltas(tr, fine.Matrix, cyc.ID)
	if err != nil {
		b.Fatal(err)
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
	b.ReportMetric(badRatio/stats.Median(peers), "cycle-ratio-vs-peers")
}

// --- Figure 6: WRF floating-point exceptions ------------------------------

func BenchmarkFig6WRF(b *testing.B) {
	cfg := DefaultWRF()
	tr, err := GenerateWRF(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res, err = Analyze(tr, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	hot := res.Analysis.HotspotRanks()
	b.ReportMetric(float64(hot[0]), "hotspot-rank")

	traps, _ := tr.MetricByName(workloads.MicrotrapCounterName)
	totals := metric.RankTotals(tr, traps.ID)
	meanSOS := make([]float64, tr.NumRanks())
	for rank := range meanSOS {
		meanSOS[rank] = res.Analysis.Ranks[rank].MeanSOS
	}
	b.ReportMetric(stats.Pearson(meanSOS, totals), "pearson-sos-traps")

	initRegion, _ := tr.RegionByName("wrf_init")
	var initEnd trace.Time
	for rank := range tr.Procs {
		for _, ev := range tr.Procs[rank].Events {
			if ev.Kind == trace.KindLeave && ev.Region == initRegion.ID && ev.Time > initEnd {
				initEnd = ev.Time
			}
		}
	}
	_, last := tr.Span()
	b.ReportMetric(float64(initEnd)/1e9, "init-seconds")
	b.ReportMetric(imbalance.ParadigmFractionBetween(tr, trace.ParadigmMPI, initEnd, last)*100, "mpi-pct-steady")
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationSOSvsInclusive quantifies the paper's Fig. 3 argument:
// culprit-identification accuracy and separation margin of SOS-times vs
// plain inclusive durations.
func BenchmarkAblationSOSvsInclusive(b *testing.B) {
	cfg := DefaultCosmoSpecs()
	cfg.GridX, cfg.GridY, cfg.Steps = 6, 6, 20
	cfg.CloudCenterCol, cfg.CloudCenterRow = 2.4, 3.0
	tr, err := GenerateCosmoSpecs(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	_, hottest := cfg.CloudRanks()
	b.ResetTimer()
	var sosHits, inclHits int
	for i := 0; i < b.N; i++ {
		sosHits, inclHits = 0, 0
		for it := 0; it < res.Matrix.Iterations(); it++ {
			if baseline.CulpritBySOS(res.Matrix, it) == Rank(hottest) {
				sosHits++
			}
			if baseline.CulpritByInclusive(res.Matrix, it) == Rank(hottest) {
				inclHits++
			}
		}
	}
	iters := float64(res.Matrix.Iterations())
	b.ReportMetric(float64(sosHits)/iters*100, "sos-accuracy-pct")
	b.ReportMetric(float64(inclHits)/iters*100, "inclusive-accuracy-pct")
}

// BenchmarkAblationDominantRule compares the paper's 2p-invocation rule
// with naive max-inclusive selection (which picks main and yields a single
// segment per rank — no variation analysis possible).
func BenchmarkAblationDominantRule(b *testing.B) {
	cfg := DefaultCosmoSpecs()
	cfg.GridX, cfg.GridY, cfg.Steps = 6, 6, 20
	tr, err := GenerateCosmoSpecs(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sel dominant.Selection
	for i := 0; i < b.N; i++ {
		sel, err = dominant.Select(tr, dominant.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	m, err := segment.Compute(tr, sel.Dominant.Region, nil)
	if err != nil {
		b.Fatal(err)
	}
	mainRegion, _ := tr.RegionByName("main")
	mm, err := segment.Compute(tr, mainRegion.ID, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(m.PerRank[0])), "segments-2p-rule")
	b.ReportMetric(float64(len(mm.PerRank[0])), "segments-max-inclusive")
}

// BenchmarkAblationRepresentatives shows the representative-clustering
// baseline dropping the transient hotspot that SOS analysis finds.
func BenchmarkAblationRepresentatives(b *testing.B) {
	cfg := DefaultFD4()
	cfg.Ranks = 64
	cfg.Iterations = 24
	tr, err := GenerateFD4(cfg)
	if err != nil {
		b.Fatal(err)
	}
	profiles, err := baseline.RankProfiles(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var reps []Rank
	for i := 0; i < b.N; i++ {
		reps, _ = baseline.ClusterRepresentatives(profiles, 0.25)
	}
	retained := 0.0
	if baseline.Retained(reps, Rank(cfg.InterruptRank)) {
		retained = 1
	}
	b.ReportMetric(float64(len(reps)), "representatives")
	b.ReportMetric(retained, "hotspot-rank-retained")
}

// --- Component micro-benchmarks -------------------------------------------

func BenchmarkTraceWrite(b *testing.B) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkTraceRead(b *testing.B) {
	tr, err := GenerateFD4(smallFD4())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentCompute(b *testing.B) {
	tr, err := GenerateCosmoSpecs(DefaultCosmoSpecs())
	if err != nil {
		b.Fatal(err)
	}
	r, _ := tr.RegionByName("timestep")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := segment.Compute(tr, r.ID, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeatmapRender(b *testing.B) {
	tr, err := GenerateCosmoSpecs(DefaultCosmoSpecs())
	if err != nil {
		b.Fatal(err)
	}
	r, _ := tr.RegionByName("timestep")
	m, err := segment.Compute(tr, r.ID, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := RenderOptions{Width: 1000, Height: 500, Labels: true}
	first, last := tr.Span()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vis.SOSHeatmapSpan(first, last, m, opts)
	}
}

func BenchmarkTimelineRender(b *testing.B) {
	tr, err := GenerateCosmoSpecs(DefaultCosmoSpecs())
	if err != nil {
		b.Fatal(err)
	}
	opts := RenderOptions{Width: 1000, Height: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vis.Timeline(tr, opts)
	}
}

func BenchmarkSimulator(b *testing.B) {
	cfg := sim.Config{Ranks: 64, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(cfg, func(p *sim.Proc) {
			for step := 0; step < 10; step++ {
				p.Call("iter", func() {
					p.Compute(trace.Duration(p.Rng().Intn(1_000_000)))
					p.Barrier()
				})
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks --------------------------------------------------

// BenchmarkOnlineDetection measures the in-situ analyzer's throughput and
// reports how early the interruption alert fires (fraction of the run).
func BenchmarkOnlineDetection(b *testing.B) {
	cfg := DefaultFD4()
	tr, err := GenerateFD4(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dom, _ := tr.RegionByName("iteration")
	b.SetBytes(int64(tr.NumEvents()))
	b.ResetTimer()
	var alerts []online.Alert
	var seen int
	for i := 0; i < b.N; i++ {
		a, err := online.Config{Ranks: tr.NumRanks(), Regions: tr.Regions, Dominant: dom.ID}.NewAnalyzer()
		if err != nil {
			b.Fatal(err)
		}
		alerts, err = a.FeedTrace(tr)
		if err != nil {
			b.Fatal(err)
		}
		seen = a.SeenSegments()
	}
	if len(alerts) == 0 {
		b.Fatal("no alerts")
	}
	b.ReportMetric(float64(alerts[0].Segment.Rank), "alert-rank")
	b.ReportMetric(float64(alerts[0].SeenSegments)/float64(seen)*100, "alert-at-run-pct")
}

// BenchmarkCompareRuns measures the alignment-based two-run comparison on
// the static-vs-balanced pair and reports the imbalance improvement.
func BenchmarkCompareRuns(b *testing.B) {
	scfg := DefaultCosmoSpecs()
	scfg.GridX, scfg.GridY, scfg.Steps = 6, 6, 20
	scfg.CloudCenterCol, scfg.CloudCenterRow = 2.4, 3.0
	static, err := GenerateCosmoSpecs(scfg)
	if err != nil {
		b.Fatal(err)
	}
	bcfg := DefaultFD4()
	bcfg.Ranks = 36
	bcfg.Iterations = 20
	bcfg.InterruptDuration = 0
	balanced, err := GenerateFD4(bcfg)
	if err != nil {
		b.Fatal(err)
	}
	resA, err := Analyze(static, Options{})
	if err != nil {
		b.Fatal(err)
	}
	resB, err := Analyze(balanced, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var c *Comparison
	for i := 0; i < b.N; i++ {
		c = CompareRuns(resA, resB)
	}
	b.ReportMetric(c.MeanImbalanceA, "imbalance-static")
	b.ReportMetric(c.MeanImbalanceB, "imbalance-balanced")
}

// BenchmarkClockCorrection measures skew detection + correction on a
// deliberately skewed 64-rank trace.
func BenchmarkClockCorrection(b *testing.B) {
	cfg := DefaultFD4()
	cfg.Ranks = 64
	tr, err := GenerateFD4(cfg)
	if err != nil {
		b.Fatal(err)
	}
	skew := make([]int64, 64)
	for i := range skew {
		skew[i] = int64((i%7 - 3)) * int64(trace.Millisecond)
	}
	skewed, err := clockfix.InjectSkew(tr, skew)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var info ClockInfo
	for i := 0; i < b.N; i++ {
		_, info, err = CorrectClocks(skewed, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(info.ViolationsBefore), "violations-before")
	b.ReportMetric(float64(info.ViolationsAfter), "violations-after")
}

// BenchmarkAnalyzeScaling measures full-pipeline throughput (events/sec)
// as the rank count grows.
func BenchmarkAnalyzeScaling(b *testing.B) {
	for _, ranks := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			cfg := DefaultFD4()
			cfg.Ranks = ranks
			cfg.InterruptRank = ranks / 2
			tr, err := GenerateFD4(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(tr.NumEvents()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(tr, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel pipeline benchmarks ------------------------------------------

// benchAtJobs runs the benchmark body under a fixed worker-count override
// (0 = GOMAXPROCS) and reports the effective worker count as a metric so
// the speedup-vs-serial numbers are interpretable on any machine.
func benchAtJobs(b *testing.B, jobs int, body func(b *testing.B)) {
	prev := SetJobs(jobs)
	defer SetJobs(prev)
	b.ResetTimer()
	body(b)
	// After the body: ResetTimer deletes user-reported metrics.
	b.ReportMetric(float64(Jobs()), "workers")
}

var benchJobVariants = []struct {
	name string
	jobs int
}{
	{"j1", 1}, {"j2", 2}, {"j4", 4}, {"jmax", 0},
}

// BenchmarkFigPipelineParallel measures the full three-step pipeline on
// the paper-scale 100-rank COSMO-SPECS workload at fixed worker counts.
// j1 is the serial baseline; jmax uses all of GOMAXPROCS.
func BenchmarkFigPipelineParallel(b *testing.B) {
	tr, err := GenerateCosmoSpecs(DefaultCosmoSpecs())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range benchJobVariants {
		b.Run(v.name, func(b *testing.B) {
			benchAtJobs(b, v.jobs, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Analyze(tr, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkFigReplayParallel isolates the per-rank call-stack replay on
// the 200-rank FD4 workload.
func BenchmarkFigReplayParallel(b *testing.B) {
	tr, err := GenerateFD4(DefaultFD4())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range benchJobVariants {
		b.Run(v.name, func(b *testing.B) {
			benchAtJobs(b, v.jobs, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := callstack.ReplayTrace(context.Background(), tr); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkFigDecodeParallel measures the skip-scan + parallel block
// decode of the PVTR archive reader on the 100-rank COSMO-SPECS trace.
func BenchmarkFigDecodeParallel(b *testing.B) {
	tr, err := GenerateCosmoSpecs(DefaultCosmoSpecs())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, v := range benchJobVariants {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			benchAtJobs(b, v.jobs, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := trace.Read(bytes.NewReader(data)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkPhaseClustering measures phase classification on the FD4 fine
// matrix and reports how many segments land in the slow phase.
func BenchmarkPhaseClustering(b *testing.B) {
	tr, err := GenerateFD4(DefaultFD4())
	if err != nil {
		b.Fatal(err)
	}
	res, err := Analyze(tr, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var c *Clustering
	for i := 0; i < b.N; i++ {
		c = res.Phases(2)
	}
	b.ReportMetric(float64(c.Sizes[c.SlowestCluster()]), "slow-phase-size")
}
