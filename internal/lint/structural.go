package lint

import (
	"sort"

	"perfvar/internal/trace"
)

// The structural tier surfaces the trace.StreamChecker facts — the same
// implementation Trace.Validate uses — but reports every violation
// instead of the first, split across three analyzers by concern:
// nesting (ordering and enter/leave discipline), metricmode (counter
// semantics), and msgmatch (message well-formedness plus send/recv
// pairing).

// isNestingCode reports whether a structural issue belongs to the
// nesting analyzer.
func isNestingCode(c trace.IssueCode) bool {
	switch c {
	case trace.IssueUnsorted, trace.IssueUndefinedRegion, trace.IssueLeaveWithoutEnter,
		trace.IssueMismatchedLeave, trace.IssueLeaveBeforeEnter, trace.IssueUnclosedRegion,
		trace.IssueUnknownKind:
		return true
	}
	return false
}

// fixHint describes the mechanical repair Fix applies per issue code.
func fixHint(c trace.IssueCode) string {
	switch c {
	case trace.IssueUnsorted, trace.IssueLeaveBeforeEnter:
		return "drop the out-of-order event"
	case trace.IssueUndefinedRegion, trace.IssueUndefinedMetric, trace.IssueUnknownKind:
		return "drop the event"
	case trace.IssueLeaveWithoutEnter:
		return "drop the stray leave"
	case trace.IssueMismatchedLeave:
		return "synthesize leaves for the unclosed inner regions"
	case trace.IssueUnclosedRegion:
		return "synthesize leaves at the stream end"
	case trace.IssueMetricDecreased:
		return "drop the decreasing sample"
	case trace.IssueUndefinedPeer:
		return "drop the message event"
	case trace.IssueNegativeBytes:
		return "clamp the size to zero"
	}
	return ""
}

func reportStructural(p *Pass, match func(trace.IssueCode) bool) {
	for rank := 0; rank < p.NumRanks(); rank++ {
		for _, is := range p.Structural(trace.Rank(rank)) {
			if !match(is.Code) {
				continue
			}
			p.Report(Diagnostic{
				Code: is.Code.String(), Severity: SeverityError,
				Rank: is.Rank, Event: is.Event, Time: is.Time,
				Message: is.Message, SuggestedFix: fixHint(is.Code), Fixable: true,
			})
		}
	}
}

// nestingAnalyzer subsumes Trace.Validate's ordering and enter/leave
// checks, reporting all violations.
type nestingAnalyzer struct{}

func (nestingAnalyzer) Name() string { return "nesting" }
func (nestingAnalyzer) Doc() string {
	return "per-rank timestamps must be non-decreasing and enter/leave events properly nested, balanced, and defined; every analysis replays call stacks and breaks on violations"
}
func (nestingAnalyzer) Severity() Severity { return SeverityError }
func (nestingAnalyzer) Scope() Scope       { return ScopeRank }
func (nestingAnalyzer) Stream(p *Pass) StreamVisitor {
	return nestingVisitor{p: p}
}

type nestingVisitor struct {
	FinishOnly
	p *Pass
}

func (v nestingVisitor) Finish() error {
	reportStructural(v.p, isNestingCode)
	return nil
}

// metricmodeAnalyzer checks counter semantics: accumulated metrics must
// be monotone and references defined (error tier, shared with Validate),
// and absolute metrics should not spike beyond plausibility (warning
// tier).
type metricmodeAnalyzer struct{}

func (metricmodeAnalyzer) Name() string { return "metricmode" }
func (metricmodeAnalyzer) Doc() string {
	return "accumulated metrics must be monotonically non-decreasing and defined; absolute metrics are screened for implausible single-sample spikes"
}
func (metricmodeAnalyzer) Severity() Severity { return SeverityError }
func (metricmodeAnalyzer) Scope() Scope       { return ScopeRank }
func (metricmodeAnalyzer) Stream(p *Pass) StreamVisitor {
	return &metricmodeVisitor{p: p, perRank: make([]metricRankState, p.NumRanks())}
}

// Spike-screen tuning: a single absolute-metric sample more than
// spikeFactor times the rank's 95th-percentile magnitude is almost
// certainly a measurement glitch (bit flip, unit mixup), not workload
// behavior.
const (
	spikeFactor  = 50
	spikeMinLen  = 20
	spikeQuantil = 0.95
)

type metricSample struct {
	event int
	time  trace.Time
	value float64
}

type metricRankState struct {
	next      int
	perMetric map[trace.MetricID][]metricSample
	_         cacheLinePad
}

type metricmodeVisitor struct {
	p       *Pass
	perRank []metricRankState
}

func (v *metricmodeVisitor) VisitEvent(rank trace.Rank, ev trace.Event) error {
	st := &v.perRank[rank]
	i := st.next
	st.next++
	metrics := v.p.Header().Metrics
	if ev.Kind != trace.KindMetric || ev.Metric < 0 || int(ev.Metric) >= len(metrics) {
		return nil
	}
	if metrics[ev.Metric].Mode != trace.MetricAbsolute {
		return nil
	}
	if st.perMetric == nil {
		st.perMetric = make(map[trace.MetricID][]metricSample)
	}
	st.perMetric[ev.Metric] = append(st.perMetric[ev.Metric], metricSample{i, ev.Time, ev.Value})
	return nil
}

func (v *metricmodeVisitor) FinishRank(rank trace.Rank) error {
	st := &v.perRank[rank]
	ids := make([]trace.MetricID, 0, len(st.perMetric))
	for id := range st.perMetric {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	metrics := v.p.Header().Metrics
	for _, id := range ids {
		samples := st.perMetric[id]
		if len(samples) < spikeMinLen {
			continue
		}
		mags := make([]float64, len(samples))
		for i, s := range samples {
			mags[i] = abs(s.value)
		}
		sort.Float64s(mags)
		p95 := mags[int(float64(len(mags)-1)*spikeQuantil)]
		if p95 <= 0 {
			continue
		}
		for _, s := range samples {
			if abs(s.value) > spikeFactor*p95 {
				v.p.Reportf(SeverityWarning, "metric-spike", rank, s.event, s.time,
					"absolute metric %q spikes to %g (95th percentile %g)",
					metrics[id].Name, s.value, p95)
			}
		}
	}
	st.perMetric = nil
	return nil
}

func (v *metricmodeVisitor) Finish() error {
	reportStructural(v.p, func(c trace.IssueCode) bool {
		return c == trace.IssueUndefinedMetric || c == trace.IssueMetricDecreased
	})
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// msgmatchAnalyzer checks message well-formedness (defined peers,
// non-negative sizes — error tier, shared with Validate) and send/recv
// pairing: unmatched sends and receives, self-messages, duplicated
// sends, and size mismatches between matched endpoints.
type msgmatchAnalyzer struct{}

func (msgmatchAnalyzer) Name() string { return "msgmatch" }
func (msgmatchAnalyzer) Doc() string {
	return "every send should have a matching receive (FIFO per src/dst/tag channel) with the same payload size; unmatched, self-addressed, and duplicated messages distort communication analyses"
}
func (msgmatchAnalyzer) Severity() Severity { return SeverityError }
func (msgmatchAnalyzer) Scope() Scope       { return ScopeCrossRank }
func (msgmatchAnalyzer) Stream(p *Pass) StreamVisitor {
	return &msgmatchVisitor{p: p, perRank: make([]msgRankState, p.NumRanks())}
}

type msgRankState struct {
	next     int
	prev     trace.Event
	prevIdx  int
	havePrev bool
	_        cacheLinePad
}

type msgmatchVisitor struct {
	p       *Pass
	perRank []msgRankState
}

func (v *msgmatchVisitor) VisitEvent(rank trace.Rank, ev trace.Event) error {
	st := &v.perRank[rank]
	i := st.next
	st.next++
	if ev.Kind != trace.KindSend {
		return nil
	}
	if ev.Peer == rank {
		v.p.Reportf(SeverityWarning, "self-message", rank, i, ev.Time,
			"send addressed to the sending rank itself (tag %d)", ev.Tag)
	}
	if st.havePrev && st.prev.Time == ev.Time && st.prev.Peer == ev.Peer &&
		st.prev.Tag == ev.Tag && st.prev.Bytes == ev.Bytes {
		v.p.Reportf(SeverityWarning, "duplicate-send", rank, i, ev.Time,
			"send duplicates event %d (same time, peer %d, tag %d, %d bytes)",
			st.prevIdx, ev.Peer, ev.Tag, ev.Bytes)
	}
	st.prev, st.prevIdx, st.havePrev = ev, i, true
	return nil
}

func (v *msgmatchVisitor) FinishRank(trace.Rank) error { return nil }

func (v *msgmatchVisitor) Finish() error {
	p := v.p
	reportStructural(p, func(c trace.IssueCode) bool {
		return c == trace.IssueUndefinedPeer || c == trace.IssueNegativeBytes
	})

	msgs := p.Messages()
	for _, s := range msgs.UnmatchedSends {
		p.Reportf(SeverityWarning, "unmatched-send", s.Rank, s.Event, s.Time,
			"send to rank %d (tag %d, %d bytes) has no matching receive", s.Peer, s.Tag, s.Bytes)
	}
	for _, r := range msgs.UnmatchedRecvs {
		p.Reportf(SeverityWarning, "unmatched-recv", r.Rank, r.Event, r.Time,
			"recv from rank %d (tag %d) has no matching send", r.Peer, r.Tag)
	}
	for _, pair := range msgs.Pairs {
		if pair.Send.Bytes != pair.Recv.Bytes {
			p.Reportf(SeverityWarning, "bytes-mismatch", pair.Recv.Rank, pair.Recv.Event, pair.Recv.Time,
				"recv of %d bytes from rank %d (tag %d) matches a send of %d bytes",
				pair.Recv.Bytes, pair.Recv.Peer, pair.Recv.Tag, pair.Send.Bytes)
		}
	}
	return nil
}
