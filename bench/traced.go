package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"perfvar"
	"perfvar/internal/callstack"
	"perfvar/internal/core/dominant"
	"perfvar/internal/core/imbalance"
	"perfvar/internal/core/segment"
	"perfvar/internal/ingest"
	"perfvar/internal/lint"
	"perfvar/internal/online"
	"perfvar/internal/parallel"
	"perfvar/internal/store"
	"perfvar/internal/trace"
	"perfvar/internal/vis"
)

// The traced run times calls into each layer's public functions from the
// benchmark's own code. Spans are kept in memory and written to a file
// when the run ends; a layer's self time is its span's duration minus the
// part of it that child spans cover. The fused engine cannot be split
// from outside, so the traced run also re-composes the pipeline in stages
// (decode each rank into a buffer, then replay, candidate segmentation,
// selection and statistics) and reports engine.staged_over_fused, the
// cost of that staging relative to a fused run without MPI bins, a stage
// the staged pipeline cannot reproduce. End-to-end numbers come from the
// untraced run only.

// span is one timed call. Spans of one operation share op_id; parent 0
// marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans; safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(op, parent int, name string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, OpID: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a span that was timed elsewhere.
func (t *tracer) add(op, parent int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, OpID: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// timed runs fn inside a span.
func (t *tracer) timed(op, parent int, name string, fn func() error) error {
	id := t.begin(op, parent, name)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span name and op, the summed self time in
// milliseconds.
func selfTimes(spans []span) map[string]map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]map[int]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		if out[s.Name] == nil {
			out[s.Name] = map[int]float64{}
		}
		out[s.Name][s.OpID] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// durations returns, per op, the summed duration in milliseconds of the
// spans called name.
func durations(spans []span, name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.OpID] += float64(s.End-s.Start) / float64(time.Millisecond)
		}
	}
	return out
}

// sortedOps lists the op ids of a per-op map in order.
func sortedOps(byOp map[int]float64) []int {
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	return ops
}

// perOp lists a name's per-op values in op order.
func perOp(byOp map[int]float64) []float64 {
	ops := sortedOps(byOp)
	v := make([]float64, len(ops))
	for i, op := range ops {
		v[i] = byOp[op]
	}
	return v
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	cfg      runConfig
	t        *tracer
	out      *outcome
	archives [][]byte
	goldens  []*golden
	counts   map[string][]float64 // per-op counts and ratios, by metric
	opBytes  map[int]int          // archive size of each archive op
	ops      int
}

func (r *tracedRun) count(name string, v float64) { r.counts[name] = append(r.counts[name], v) }

// runTraced times each layer. For the first half of the run, staged and
// fused analyses with every follow-up view run on the workload's own
// archives. A traced run must report every per-layer metric, so it then
// drives the daemon and the session manager too, always on the same
// inputs whatever the workload: a serve-mix sequence sized for a quarter
// of the run over the serve-mix corpus, then live-synth sessions until
// the run ends. serve.* and ingest.* thus mean the same in every result
// file.
func runTraced(w workload, cfg runConfig) (*outcome, error) {
	archives, goldens, err := w.inputs(cfg)
	if err != nil {
		return nil, err
	}
	corpus, corpusGoldens, err := corpusInputs(cfg)
	if err != nil {
		return nil, err
	}
	sessions, err := liveSessions(cfg, 2)
	if err != nil {
		return nil, err
	}
	r := &tracedRun{
		cfg: cfg, t: &tracer{epoch: time.Now()}, out: newOutcome(),
		archives: archives, goldens: goldens, counts: map[string][]float64{}, opBytes: map[int]int{},
	}
	st, err := store.Open(filepath.Join(cfg.tmp, "store"), 0)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds/2; i++ {
		r.archiveOp(i%len(archives), st)
	}
	if err := r.serveProbe(corpus, corpusGoldens); err != nil {
		return nil, err
	}
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		if err := r.ingestProbe(i, sessions[i%len(sessions)]); err != nil {
			return nil, err
		}
	}
	r.metrics()
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
	if err := writeJSONFile(path, r.t.spans); err != nil {
		return nil, err
	}
	r.out.info["spans"] = float64(len(r.t.spans))
	return r.out, nil
}

// nextOp allocates an op id.
func (r *tracedRun) nextOp() int {
	r.ops++
	return r.ops
}

// archiveOp runs one traced archive operation: the staged pipeline, the
// fused engine (default, without MPI bins, and at one worker), and every
// follow-up view a daemon serves.
func (r *tracedRun) archiveOp(i int, st *store.Store) {
	ctx := context.Background()
	data, g := r.archives[i], r.goldens[i]
	op := r.nextOp()
	r.opBytes[op] = len(data)
	root := r.t.begin(op, 0, "op")
	defer r.t.end(root)
	r.out.attempted++
	fail := func(stage string, err error) { r.out.fail("op %d (archive %d) %s: %v", op, i, stage, err) }

	// The staged pipeline and the three fused analyses are compared with
	// each other, so each starts from a collected heap rather than paying
	// for the garbage of the one before.
	runtime.GC()
	staged, err := r.stagedAnalyze(ctx, op, root, data)
	if err != nil {
		fail("staged pipeline", err)
		return
	}
	var res *perfvar.Result
	analyze := func(name string, opts perfvar.Options) error {
		runtime.GC()
		return r.t.timed(op, root, name, func() (err error) {
			res, err = perfvar.AnalyzeSource(ctx, perfvar.ArchiveSource(data), opts)
			return err
		})
	}
	if err := analyze("engine.analyze_nobins", perfvar.Options{MPIFractionBins: -1}); err != nil {
		fail("analyze without bins", err)
		return
	}
	prev := perfvar.SetJobs(1)
	err = analyze("engine.analyze_j1", perfvar.Options{})
	perfvar.SetJobs(prev)
	if err != nil {
		fail("analyze at one worker", err)
		return
	}
	if err := analyze("engine.analyze", perfvar.Options{}); err != nil {
		fail("analyze", err)
		return
	}
	if staged.region != res.Matrix.Region || staged.segments != res.Matrix.TotalSegments() || staged.hotspots != len(res.Analysis.Hotspots) {
		fail("staged pipeline", fmt.Errorf("disagrees with the fused engine"))
	}

	var buf bytes.Buffer
	err = r.t.timed(op, root, "report.json", func() error { return res.Report().WriteJSON(&buf) })
	if err == nil && !bytes.Equal(buf.Bytes(), g.report) {
		err = fmt.Errorf("differs from the reference")
	}
	if err != nil {
		fail("report", err)
	}

	var img *vis.Image
	r.t.timed(op, root, "vis.heatmap", func() error { img = res.Heatmap(vis.RenderOptions{}); return nil })
	var png bytes.Buffer
	if err := r.t.timed(op, root, "vis.png", func() error { return vis.WritePNG(&png, img) }); err != nil {
		fail("png", err)
	}

	var lres *lint.Result
	err = r.t.timed(op, root, "lint.run", func() error {
		src, err := perfvar.ArchiveSource(data).Open(ctx)
		if err != nil {
			return err
		}
		defer src.Close()
		lres, err = lint.RunSource(ctx, src, lint.Options{})
		return err
	})
	if err != nil {
		fail("lint", err)
	} else {
		r.count("lint.diagnostics", float64(len(lres.Diagnostics)))
	}

	var tr *trace.Trace
	err = r.t.timed(op, root, "trace.materialize", func() (err error) {
		tr, err = trace.ReadAnyLimit(bytes.NewReader(data), 64<<20)
		return err
	})
	var mres *perfvar.Result
	if err == nil {
		err = r.t.timed(op, root, "engine.materialized", func() (err error) {
			mres, err = perfvar.AnalyzeContext(ctx, tr, perfvar.Options{})
			return err
		})
	}
	if err == nil {
		err = r.t.timed(op, root, "causality.build", func() error {
			_, err := mres.CausalityContext(ctx)
			return err
		})
	}
	if err != nil {
		fail("causality", err)
	}

	var enc bytes.Buffer
	err = r.t.timed(op, root, "persist.encode", func() error { return res.EncodeStored(&enc) })
	if err == nil {
		err = r.t.timed(op, root, "persist.decode", func() error {
			_, err := perfvar.DecodeStoredResult(bytes.NewReader(enc.Bytes()))
			return err
		})
	}
	key := fmt.Sprintf("bench-op-%d", op)
	if err == nil {
		err = r.t.timed(op, root, "store.put", func() error { return st.Put(key, enc.Bytes()) })
	}
	if err == nil {
		err = r.t.timed(op, root, "store.get", func() error {
			got, ok := st.Get(key)
			if !ok || !bytes.Equal(got, enc.Bytes()) {
				return fmt.Errorf("stored entry not read back")
			}
			return nil
		})
	}
	if err != nil {
		fail("persist and store", err)
	} else {
		r.count("store.bytes", float64(enc.Len()))
	}
}

// stagedResult is what the staged pipeline found, for the cross-check
// with the fused engine.
type stagedResult struct {
	region   trace.RegionID
	segments int
	hotspots int
}

// stagedAnalyze re-composes the engine's single pass in stages, one span
// per layer, under an engine.staged span.
func (r *tracedRun) stagedAnalyze(ctx context.Context, op, root int, data []byte) (*stagedResult, error) {
	parent := r.t.begin(op, root, "engine.staged")
	defer r.t.end(parent)
	timed := func(name string, fn func() error) error { return r.t.timed(op, parent, name, fn) }

	var rs *trace.RankStreams
	var bufs [][]trace.Event
	err := timed("trace.decode", func() (err error) {
		if rs, err = trace.OpenRankStreamsBytes(data); err != nil {
			return err
		}
		bufs, err = parallel.MapCtx(ctx, rs.NumRanks(), func(rank int) ([]trace.Event, error) {
			var evs []trace.Event
			err := rs.StreamRank(rank, func(ev trace.Event) error {
				evs = append(evs, ev)
				return nil
			})
			return evs, err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	h := rs.Header()
	nranks, nregions := rs.NumRanks(), len(h.Regions)
	var events int
	for _, b := range bufs {
		events += len(b)
	}
	r.count("trace.events_per_op", float64(events))

	// The engine's candidate regions: user-paradigm, non-sync.
	syncMask := segment.SyncMask(h.Regions, nil)
	track := make([]bool, nregions)
	for i, reg := range h.Regions {
		track[i] = !syncMask[i] && reg.Paradigm == trace.ParadigmUser
	}

	var prof *callstack.Profile
	err = timed("callstack.replay", func() error {
		reps, err := parallel.MapCtx(ctx, nranks, func(rank int) (*callstack.StreamReplay, error) {
			rep := callstack.NewStreamReplay(trace.Rank(rank), nregions)
			for _, ev := range bufs[rank] {
				if err := rep.Feed(ev); err != nil {
					return nil, err
				}
			}
			return rep, rep.Finish()
		})
		if err == nil {
			prof = callstack.ProfileFromStreams(nregions, reps)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var cands []*segment.CandidateSet
	err = timed("segment.candidates", func() (err error) {
		cands, err = parallel.MapCtx(ctx, nranks, func(rank int) (*segment.CandidateSet, error) {
			c := segment.NewCandidateSet(trace.Rank(rank), track, syncMask, 0)
			for _, ev := range bufs[rank] {
				c.Feed(ev)
			}
			return c, nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	var sel dominant.Selection
	err = timed("dominant.select", func() (err error) {
		sel, err = dominant.SelectFromProfileDefs(h.Regions, nranks, prof, dominant.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	region := sel.Dominant.Region

	perRank := make([][]segment.Segment, nranks)
	var candSegs, evicted, winner int
	fallback := false
	for rank, c := range cands {
		for reg, tracked := range track {
			if !tracked {
				continue
			}
			if segs, ok := c.Segments(trace.RegionID(reg)); ok {
				candSegs += len(segs)
			} else {
				evicted++
			}
		}
		segs, ok := c.Segments(region)
		fallback = fallback || !ok
		perRank[rank] = segs
	}
	if fallback {
		// The winner was evicted over budget: segment it in a second pass,
		// as the engine does.
		err = timed("segment.fallback_pass", func() (err error) {
			perRank, err = parallel.MapCtx(ctx, nranks, func(rank int) ([]segment.Segment, error) {
				s := segment.NewStreamSegmenter(trace.Rank(rank), region, h.Regions[region].Name, syncMask)
				for _, ev := range bufs[rank] {
					if err := s.Feed(ev); err != nil {
						return nil, err
					}
				}
				return s.Finish()
			})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, segs := range perRank {
		winner += len(segs)
	}
	r.count("segment.candidate_segments", float64(candSegs))
	r.count("segment.winner_segments", float64(winner))
	r.count("segment.evicted_regions", float64(evicted))
	r.count("segment.fallback", float64(btoi(fallback)))

	m := &segment.Matrix{Region: region, RegionName: h.Regions[region].Name, PerRank: perRank}
	var a *imbalance.Analysis
	err = timed("imbalance.analyze", func() (err error) {
		a, err = imbalance.AnalyzeContext(ctx, m, imbalance.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &stagedResult{region: region, segments: winner, hotspots: len(a.Hotspots)}, nil
}

// serveProbe replays one pass of a serve-mix sequence sized for a quarter
// of the run against an in-process perfvard, as serve-mix does, and
// records each request as a span named by the cache tier that answered.
func (r *tracedRun) serveProbe(corpus [][]byte, goldens []*golden) error {
	d, err := startDaemon(filepath.Join(r.cfg.tmp, "serve-probe"), true)
	if err != nil {
		return err
	}
	defer d.close()
	c := oneConnClient()
	defer c.CloseIdleConnections()
	before, err := computedCount(c, d.ts.URL)
	if err != nil {
		return err
	}
	res := replay(d.ts.URL, corpus, serveSequence(r.cfg, r.cfg.seconds/4), newViewChecker(goldens))
	tiers := map[string]int{}
	for k, s := range res {
		r.out.attempted++
		if s.err != nil {
			r.out.fail("serve probe request %d: %v", k, s.err)
			continue
		}
		tiers[s.tier]++
		r.t.add(r.nextOp(), 0, "serve."+s.tier, s.start, s.end)
	}
	after, err := computedCount(c, d.ts.URL)
	if err != nil {
		return err
	}
	for _, t := range []string{"hit", "disk", "miss", "shared"} {
		r.count("serve."+t+"_ratio", float64(tiers[t])/float64(len(res)))
	}
	r.count("serve.computed", float64(after-before))
	return nil
}

// computedCount reads perfvard_analyses_computed_total from /metrics.
func computedCount(c *http.Client, base string) (int64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, "perfvard_analyses_computed_total %d", &v); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no perfvard_analyses_computed_total")
}

// ingestProbe feeds live-synth session s through an in-process session
// manager on the live tick schedule, timing frame decode, the session's
// FeedFrame, and — on separate instances fed the same events — the spool
// and the online detector alone, then finalizes the session.
func (r *tracedRun) ingestProbe(i int, s *liveSession) error {
	h := s.cfg.Header()
	dir := filepath.Join(r.cfg.tmp, fmt.Sprintf("ingest-probe-%d", i))
	mgr, err := ingest.NewManager(ingest.Config{SpoolDir: filepath.Join(dir, "sessions")})
	if err != nil {
		return err
	}
	defer mgr.Close()
	sess, err := mgr.Create(ingest.RequestFromHeader(h, sessionDominant, ingest.PolicySpec{}))
	if err != nil {
		return err
	}
	spool, err := perfvar.NewLiveSource(h, filepath.Join(dir, "spool"))
	if err != nil {
		return err
	}
	defer spool.Remove()
	an, err := online.Config{Ranks: s.cfg.Ranks, Regions: h.Regions, DominantName: sessionDominant}.NewAnalyzer()
	if err != nil {
		return err
	}

	r.out.attempted++
	var late []float64
	due0 := time.Now().Add(tick)
	for k, batch := range s.batches {
		due := due0.Add(time.Duration(k) * tick)
		time.Sleep(time.Until(due))
		late = append(late, float64(time.Since(due))/float64(time.Millisecond))
		op := r.nextOp()
		root := r.t.begin(op, 0, "ingest.batch")
		for rest := batch; len(rest) > 0; {
			var rank trace.Rank
			var count uint64
			var payload []byte
			var evs []trace.Event
			err := r.t.timed(op, root, "trace.frame_decode", func() (err error) {
				rank, count, payload, rest, err = trace.DecodeFrame(rest, 0)
				if err != nil {
					return err
				}
				return trace.DecodeFrameEvents(payload, count, len(h.Regions), len(h.Metrics), len(h.Procs), func(ev trace.Event) error {
					evs = append(evs, ev)
					return nil
				})
			})
			if err == nil {
				err = r.t.timed(op, root, "ingest.feed_frame", func() error { return sess.FeedFrame(rank, count, payload) })
			}
			if err == nil {
				err = r.t.timed(op, root, "ingest.spool", func() error { return spool.Push(int(rank), evs...) })
			}
			if err == nil {
				err = r.t.timed(op, root, "online.feed", func() error {
					for _, ev := range evs {
						if _, err := an.Feed(rank, ev); err != nil {
							return err
						}
					}
					return nil
				})
			}
			if err != nil {
				r.t.end(root)
				r.out.fail("ingest probe %d batch %d: %v", i, k, err)
				return nil
			}
		}
		r.t.end(root)
	}
	r.count("bench.gen_late_p95_ms", quantile(late, 0.95))
	alerts := sess.Alerts(0).Alerts
	if !alertedRank(alerts, s.cfg.SlowRank) {
		r.out.fail("ingest probe %d: straggler rank %d never alerted", i, s.cfg.SlowRank)
	}
	r.count("ingest.alerts", float64(len(alerts)))

	op := r.nextOp()
	var archive []byte
	err = r.t.timed(op, 0, "ingest.finalize", func() (err error) {
		archive, err = sess.FinalizeArchive()
		return err
	})
	if err != nil {
		r.out.fail("ingest probe %d finalize: %v", i, err)
		return nil
	}
	if !bytes.Equal(archive, s.archive) {
		r.out.fail("ingest probe %d: finalized archive differs from the offline archive", i)
	}
	return nil
}

// metrics turns spans and counts into the per-layer metrics.
func (r *tracedRun) metrics() {
	self := selfTimes(r.t.spans)
	layer := func(name string) []float64 { return perOp(self[name]) }
	m := r.out.metrics
	for _, d := range perLayer {
		if v := layer(strings.TrimSuffix(d.name, "_ms")); strings.HasSuffix(d.name, "_ms") && len(v) > 0 {
			m[d.name] = median(v)
			r.out.samples[d.name] = fmt.Sprintf("(%d ops)", len(v))
		}
	}
	for name, v := range r.counts {
		m[name] = median(v)
		r.out.samples[name] = fmt.Sprintf("(%d ops)", len(v))
	}

	// Ratios and differences of the three fused analyses, per op.
	// The staged pipeline has no MPI-binning stage (the engine's binner is
	// internal), so it is compared with the fused run without bins.
	fused, nobins, j1 := self["engine.analyze"], self["engine.analyze_nobins"], self["engine.analyze_j1"]
	staged := durations(r.t.spans, "engine.staged")
	var bins, jobs, staging, mbps []float64
	for _, op := range sortedOps(fused) {
		f := fused[op]
		bins = append(bins, f-nobins[op])
		jobs = append(jobs, j1[op]/f)
		staging = append(staging, staged[op]/nobins[op])
		if d := self["trace.decode"][op]; d > 0 {
			mbps = append(mbps, float64(r.opBytes[op])/1e6/(d/1e3))
		}
	}
	m["engine.mpi_bins_ms"] = median(bins)
	m["engine.j1_over_j2"] = median(jobs)
	m["engine.staged_over_fused"] = median(staging)
	m["trace.decode_mb_per_s"] = median(mbps)
	for _, name := range []string{"engine.mpi_bins_ms", "engine.j1_over_j2", "engine.staged_over_fused", "trace.decode_mb_per_s"} {
		r.out.samples[name] = fmt.Sprintf("(%d ops)", len(bins))
	}

	feed := layer("ingest.feed_frame")
	m["ingest.feed_frame_p50_ms"] = median(feed)
	m["ingest.feed_frame_p95_ms"] = quantile(feed, 0.95)
	for _, name := range []string{"ingest.feed_frame_p50_ms", "ingest.feed_frame_p95_ms"} {
		r.out.samples[name] = fmt.Sprintf("(%d batches)", len(feed))
	}
	for _, t := range []string{"hit", "disk", "miss"} {
		v := layer("serve." + t)
		m["serve."+t+"_p50_ms"] = median(v)
		r.out.samples["serve."+t+"_p50_ms"] = fmt.Sprintf("(%d requests)", len(v))
	}
}
