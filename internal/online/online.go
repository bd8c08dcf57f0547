// Package online implements in-situ performance-variation detection: the
// streaming counterpart of the offline pipeline. The paper notes that
// "in-situ analysis while the target application is still running is
// feasible as well", but its measurement suite lacked the workflow; this
// package provides it.
//
// An Analyzer consumes events rank-by-rank as they are produced (each
// rank's stream must be fed in time order, ranks may interleave
// arbitrarily — the same guarantee a per-node measurement daemon has). It
// runs the offline pipeline's segmentation kernel (segment.CandidateSet)
// per rank at the dominant function, scores each segment the moment the
// kernel completes it, keeps a bounded deterministic
// reservoir of SOS-times for robust statistics, and raises an Alert the
// moment a completed segment deviates — while the application would still
// be running, instead of after trace collection.
package online

import (
	"fmt"

	"perfvar/internal/core/segment"
	"perfvar/internal/stats"
	"perfvar/internal/trace"
)

// Alert is one hotspot detected during the run.
type Alert struct {
	Segment segment.Segment
	// Score is the robust z-score against the statistics known at
	// detection time (not the final statistics, unlike offline analysis).
	Score float64
	// SeenSegments is how many segments had completed when the alert was
	// raised.
	SeenSegments int
}

// Options tune the online detector.
type Options struct {
	// ZThreshold is the robust z-score cutoff (default 3.5).
	ZThreshold float64
	// MinRelDeviation is the minimal relative excess over the running
	// median a segment must show to alert, mirroring the offline
	// analysis. nil applies the default (5 %); RelDeviation(v) with
	// v >= 0 requires exactly v — including zero, which only the pointer
	// form can express; any negative value disables the gate entirely.
	MinRelDeviation *float64
	// Warmup is the number of segments to observe before alerting
	// (default 32): the estimator needs a baseline first.
	Warmup int
	// ReservoirSize bounds the memory of the statistics estimator
	// (default 1024 samples).
	ReservoirSize int
}

// RelDeviation returns a pointer to v, for setting
// Options.MinRelDeviation inline.
func RelDeviation(v float64) *float64 { return &v }

func (o Options) withDefaults() Options {
	if o.ZThreshold == 0 {
		o.ZThreshold = 3.5
	}
	if o.Warmup == 0 {
		o.Warmup = 32
	}
	if o.ReservoirSize == 0 {
		o.ReservoirSize = 1024
	}
	return o
}

// resolveMinRel maps Options.MinRelDeviation onto the analyzer's gate:
// the required excess and whether the gate applies at all.
func resolveMinRel(p *float64) (minRel float64, enabled bool) {
	if p == nil {
		return 0.05, true
	}
	if *p < 0 {
		return 0, false
	}
	return *p, true
}

// Config assembles everything NewAnalyzer needs. The dominant function
// may be given either by RegionID (Dominant) or by name (DominantName,
// which takes precedence when non-empty) — the by-name form serves
// callers that carry definitions from a previous run, the by-ID form
// callers that already resolved the region.
type Config struct {
	// Ranks is the number of processing elements feeding the analyzer.
	Ranks int
	// Regions supplies paradigm/role information for the classifier.
	Regions []trace.Region
	// Dominant is the region to segment at, by ID. Ignored when
	// DominantName is non-empty.
	Dominant trace.RegionID
	// DominantName selects the dominant region by name (first match).
	DominantName string
	// Classifier decides which regions count as synchronization; nil
	// means segment.DefaultSync.
	Classifier segment.SyncClassifier
	// Options tune the detector thresholds.
	Options Options
	// OnSegment, when non-nil, observes every completed segment: its
	// robust z-score z against the statistics known at completion time
	// (scored is false — and z meaningless — while the estimator is
	// still warming up) and whether the segment raised an alert. Called
	// synchronously from Feed, so a session layer can track
	// consecutive-deviation streaks without a second segmentation pass.
	OnSegment func(seg segment.Segment, z float64, scored, alerted bool)
}

// NewAnalyzer builds the streaming detector described by c. The dominant
// region must be defined and must not classify as synchronization
// (segment.Prepare).
func (c Config) NewAnalyzer() (*Analyzer, error) {
	dom := c.Dominant
	if c.DominantName != "" {
		dom = trace.NoRegion
		for _, r := range c.Regions {
			if r.Name == c.DominantName {
				dom = r.ID
				break
			}
		}
		if dom == trace.NoRegion {
			return nil, fmt.Errorf("online: region %q not among the definitions", c.DominantName)
		}
	}
	if c.Ranks <= 0 {
		return nil, fmt.Errorf("online: nranks = %d", c.Ranks)
	}
	mask, err := segment.Prepare(c.Regions, dom, c.Classifier)
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	track := make([]bool, len(c.Regions))
	track[dom] = true
	a := &Analyzer{
		opts:      c.Options.withDefaults(),
		ranks:     make([]rankState, c.Ranks),
		rngState:  0x9e3779b97f4a7c15,
		onSegment: c.OnSegment,
	}
	a.minRel, a.minRelOn = resolveMinRel(c.Options.MinRelDeviation)
	newKernel := segment.NewCandidateStreams(c.Regions, track, mask, a.emit)
	for rank := range a.ranks {
		a.ranks[rank].seg = newKernel(trace.Rank(rank))
	}
	return a, nil
}

// maxOpenInvocations bounds the invocations open at once across all ranks
// of one Analyzer: 4 Mi kernel stack frames, about 128 MiB. The kernel
// caps each rank's depth at callstack.MaxDepth; this caps a stream that
// spreads deep stacks over many ranks. A variable only so tests can
// lower it.
var maxOpenInvocations = 1 << 22

// rankState is one rank's segmentation kernel plus its time-order floor.
type rankState struct {
	seg      *segment.CandidateSet
	lastTime trace.Time
	started  bool
}

// Analyzer is the streaming detector. Not safe for concurrent use; a
// daemon feeding multiple ranks serializes through it (events are tiny).
type Analyzer struct {
	opts      Options
	ranks     []rankState
	resv      []float64
	seen      int
	rngState  uint64
	alerts    []Alert
	pending   *Alert // alert raised by the segment the current Feed completed
	open      int    // invocations open across all ranks
	onSegment func(seg segment.Segment, z float64, scored, alerted bool)

	// minRel/minRelOn are Options.MinRelDeviation resolved once at
	// construction: the required relative excess and whether the gate
	// applies at all.
	minRel   float64
	minRelOn bool

	// Cached robust statistics, refreshed lazily: recomputing the median
	// and MAD of the reservoir on every completion would dominate the
	// per-event cost; the baseline moves slowly, so a periodic refresh is
	// statistically equivalent.
	cachedMed, cachedMAD float64
	statsAt              int
}

// Feed consumes one event of rank. Events of the same rank must arrive in
// time order and nest properly; the segmentation kernel's errors (see
// segment.CandidateSet) surface here at the offending event, which leaves
// the analyzer unchanged. It returns an alert if this event completed a
// deviating segment, or nil.
func (a *Analyzer) Feed(rank trace.Rank, ev trace.Event) (*Alert, error) {
	if int(rank) < 0 || int(rank) >= len(a.ranks) {
		return nil, fmt.Errorf("online: rank %d out of range", rank)
	}
	rs := &a.ranks[rank]
	if rs.started && ev.Time < rs.lastTime {
		return nil, fmt.Errorf("online: rank %d: event at %d before %d", rank, ev.Time, rs.lastTime)
	}
	if ev.Kind == trace.KindEnter && a.open >= maxOpenInvocations {
		return nil, fmt.Errorf("online: rank %d: more than %d invocations open across all ranks", rank, maxOpenInvocations)
	}
	a.pending = nil
	if err := rs.seg.Feed(ev); err != nil {
		return nil, err
	}
	switch ev.Kind {
	case trace.KindEnter:
		a.open++
	case trace.KindLeave:
		a.open--
	}
	rs.started = true
	rs.lastTime = ev.Time
	return a.pending, nil
}

// emit is the kernels' segment callback.
func (a *Analyzer) emit(_ trace.RegionID, seg segment.Segment) { a.pending = a.complete(seg) }

// nextRand is a deterministic xorshift64* step for reservoir sampling.
func (a *Analyzer) nextRand() uint64 {
	x := a.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	a.rngState = x
	return x * 0x2545f4914f6cdd1d
}

// complete registers a finished segment and scores it.
func (a *Analyzer) complete(seg segment.Segment) *Alert {
	sos := float64(seg.SOS())
	a.seen++

	var alert *Alert
	var z float64
	scored := false
	if a.seen > a.opts.Warmup && len(a.resv) >= 2 {
		// Refresh the cached statistics at most every 16 completions.
		if a.statsAt == 0 || a.seen-a.statsAt >= 16 {
			a.cachedMed, a.cachedMAD = stats.MedianMAD(a.resv)
			a.statsAt = a.seen
		}
		z = stats.RobustZ(sos, a.cachedMed, a.cachedMAD)
		scored = true
		if z > a.opts.ZThreshold && (!a.minRelOn || sos >= a.cachedMed*(1+a.minRel)) {
			alert = &Alert{Segment: seg, Score: z, SeenSegments: a.seen}
			a.alerts = append(a.alerts, *alert)
		}
	}

	// Reservoir update (Vitter's algorithm R, deterministic PRNG).
	if len(a.resv) < a.opts.ReservoirSize {
		a.resv = append(a.resv, sos)
	} else if j := a.nextRand() % uint64(a.seen); int(j) < len(a.resv) {
		a.resv[j] = sos
	}
	if a.onSegment != nil {
		a.onSegment(seg, z, scored, alert != nil)
	}
	return alert
}

// FeedTrace replays a recorded trace through the analyzer in global time
// order (k-way heap merge of the rank streams), simulating the in-situ
// data flow. It returns all alerts raised.
func (a *Analyzer) FeedTrace(tr *trace.Trace) ([]Alert, error) {
	type cursor struct {
		rank trace.Rank
		idx  int
		t    trace.Time
	}
	// Binary min-heap over (time, rank).
	heap := make([]cursor, 0, tr.NumRanks())
	less := func(x, y cursor) bool {
		if x.t != y.t {
			return x.t < y.t
		}
		return x.rank < y.rank
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for rank := range tr.Procs {
		if len(tr.Procs[rank].Events) > 0 {
			heap = append(heap, cursor{rank: trace.Rank(rank), t: tr.Procs[rank].Events[0].Time})
			up(len(heap) - 1)
		}
	}
	for len(heap) > 0 {
		cur := heap[0]
		ev := tr.Procs[cur.rank].Events[cur.idx]
		if _, err := a.Feed(cur.rank, ev); err != nil {
			return nil, err
		}
		if next := cur.idx + 1; next < len(tr.Procs[cur.rank].Events) {
			heap[0] = cursor{rank: cur.rank, idx: next, t: tr.Procs[cur.rank].Events[next].Time}
			down(0)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			down(0)
		}
	}
	return a.alerts, nil
}

// Alerts returns every alert raised so far.
func (a *Analyzer) Alerts() []Alert { return a.alerts }

// SeenSegments returns the number of completed segments observed.
func (a *Analyzer) SeenSegments() int { return a.seen }
