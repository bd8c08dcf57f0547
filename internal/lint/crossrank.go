package lint

import (
	"context"
	"fmt"
	"strings"

	"perfvar/internal/causality"
	"perfvar/internal/clockfix"
	"perfvar/internal/core/segment"
	"perfvar/internal/rankpass"
	"perfvar/internal/trace"
)

// The cross-rank tier lifts lint from per-rank stream checks to
// whole-trace dataflow: the analyzers here consume the message-dependency
// graph of internal/causality, built once per run from the msgmatch facts
// and the dominant-function segment matrix.

// dependencyGraph builds the causality graph from the message-matching
// facts: matched pairs become graph edges, unmatched operations become
// rank-level wait-for edges for the deadlock detector.
func dependencyGraph(ctx context.Context, m *segment.Matrix, scans []*causality.RankScanner, msgs *Messages) (*causality.Graph, error) {
	return causality.BuildContext(ctx, causality.Input{
		Matrix: m, Scans: scans, Pairs: msgs.Pairs, Unmatched: depsFromUnmatched(msgs),
	})
}

// depsFromUnmatched derives the rank-level wait-for edges of the
// operations that found no partner: an unmatched receive blocks its rank
// on the peer's missing send; an unmatched send blocks on the peer's
// missing receive under rendezvous semantics.
func depsFromUnmatched(msgs *Messages) []causality.RankDep {
	deps := make([]causality.RankDep, 0, len(msgs.UnmatchedSends)+len(msgs.UnmatchedRecvs))
	for _, s := range msgs.UnmatchedSends {
		deps = append(deps, causality.RankDep{From: s.Rank, To: s.Peer, Send: true})
	}
	for _, r := range msgs.UnmatchedRecvs {
		deps = append(deps, causality.RankDep{From: r.Rank, To: r.Peer})
	}
	return deps
}

// DependencyGraph builds the cross-rank message-dependency graph of
// src's event streams segmented by m, using the same FIFO message
// matching the msgmatch analyzer relies on: the one per-rank pass with
// only its causality scanners and op records switched on, then the
// match and the build. The pass stops once ctx is cancelled. It is the
// standalone entry for callers outside a lint run (the perfvar facade).
func DependencyGraph(ctx context.Context, src Streams, m *segment.Matrix) (*causality.Graph, error) {
	p, err := rankpass.Run(ctx, src, rankpass.Config{Scan: true, Ops: true})
	if err != nil {
		return nil, err
	}
	defer p.Release()
	scans := make([]*causality.RankScanner, len(p.Ranks))
	ops := make([][]clockfix.Op, len(p.Ranks))
	for rank, r := range p.Ranks {
		scans[rank], ops[rank] = r.Scan, r.Ops
	}
	msgs := clockfix.Match(len(ops), ops)
	return dependencyGraph(ctx, m, scans, &msgs)
}

// fmtDur renders a nanosecond duration with a compact unit for
// diagnostic messages.
func fmtDur(d trace.Duration) string {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= trace.Second:
		return fmt.Sprintf("%.2fs", float64(d)/1e9)
	case abs >= trace.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/1e6)
	case abs >= trace.Microsecond:
		return fmt.Sprintf("%.1fus", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", d)
	}
}

func fmtRanks(ranks []trace.Rank) string {
	var b strings.Builder
	for i, r := range ranks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	return b.String()
}

// latesenderAnalyzer reports segments whose sends arrive after their
// receivers already block, aggregated per causing (rank, segment) node.
type latesenderAnalyzer struct{}

func (latesenderAnalyzer) Name() string { return "latesender" }
func (latesenderAnalyzer) Doc() string {
	return "a send posted after its receiver already blocks charges the receiver's idle time to the sender; segments imposing significant late-sender wait on their peers are the direct suspects of an imbalance"
}
func (latesenderAnalyzer) Severity() Severity { return SeverityWarning }
func (latesenderAnalyzer) Scope() Scope       { return ScopeCrossRank }
func (latesenderAnalyzer) Stream(p *Pass) StreamVisitor {
	return latesenderVisitor{p: p}
}

type latesenderVisitor struct {
	FinishOnly
	p *Pass
}

func (v latesenderVisitor) Finish() error {
	p := v.p
	if p.StructurallyBroken() {
		return nil // nesting analyzer explains why replays fail
	}
	g, err := p.Dependencies()
	if err != nil {
		return nil // dominance analyzer explains the missing segmentation
	}
	type agg struct {
		wait    trace.Duration
		count   int
		waiters map[trace.Rank]bool
	}
	perCauser := map[causality.Node]*agg{}
	var order []causality.Node
	for _, e := range g.Edges {
		if e.Kind != causality.LateSender {
			continue
		}
		a := perCauser[e.Causer]
		if a == nil {
			a = &agg{waiters: map[trace.Rank]bool{}}
			perCauser[e.Causer] = a
			order = append(order, e.Causer)
		}
		a.wait += e.Wait
		a.count += e.Count
		a.waiters[e.Waiter.Rank] = true
	}
	threshold := 10 * p.MinLatency()
	reported, skipped := 0, 0
	var skippedWait trace.Duration
	for _, n := range order {
		a := perCauser[n]
		if a.wait < threshold {
			continue
		}
		if reported >= maxPerFinding {
			skipped++
			skippedWait += a.wait
			continue
		}
		reported++
		ranks := make([]trace.Rank, 0, len(a.waiters))
		for r := range a.waiters {
			ranks = append(ranks, r)
		}
		sortSlice(ranks, func(a, b trace.Rank) bool { return a < b })
		p.Reportf(SeverityWarning, "late-sender", n.Rank, -1, 0,
			"late sender: rank %d delays rank(s) %s by %s over %d message(s) in segment %d",
			n.Rank, fmtRanks(ranks), fmtDur(a.wait), a.count, n.Segment)
	}
	if skipped > 0 {
		p.Reportf(SeverityWarning, "late-sender", -1, -1, 0,
			"%d more late-sender segment(s) totaling %s not listed", skipped, fmtDur(skippedWait))
	}
	return nil
}

// waitchainAnalyzer folds indirect waits back onto their originating
// ranks and reports the root-cause ranking.
type waitchainAnalyzer struct{}

func (waitchainAnalyzer) Name() string { return "waitchain" }
func (waitchainAnalyzer) Doc() string {
	return "waiting propagates: a rank delayed by a late sender sends late itself; folding transitive waits back along the dependency chains names the ranks where the lost time truly originates"
}
func (waitchainAnalyzer) Severity() Severity { return SeverityWarning }
func (waitchainAnalyzer) Scope() Scope       { return ScopeCrossRank }
func (waitchainAnalyzer) Stream(p *Pass) StreamVisitor {
	return waitchainVisitor{p: p}
}

type waitchainVisitor struct {
	FinishOnly
	p *Pass
}

func (v waitchainVisitor) Finish() error {
	p := v.p
	if p.StructurallyBroken() {
		return nil
	}
	g, err := p.Dependencies()
	if err != nil {
		return nil
	}
	an := causality.Analyze(g, causality.Options{})
	var total trace.Duration
	for _, ra := range an.Ranks {
		total += ra.CausedWait
	}
	// Only name ranks that matter: at least 10× the network latency of
	// caused wait AND at least 5% of the total — jitter-level blame on a
	// balanced run is noise, not a root cause.
	minWait := 10 * p.MinLatency()
	for i, ra := range an.Ranks {
		if i >= maxPerFinding {
			p.Reportf(SeverityWarning, "root-cause", -1, -1, 0,
				"%d more root-cause rank(s) not listed", len(an.Ranks)-i)
			break
		}
		if ra.CausedWait < minWait || ra.CausedWait*20 < total {
			break // ranking is sorted: everything below is smaller still
		}
		p.Reportf(SeverityWarning, "root-cause", ra.Rank, -1, 0,
			"root cause: rank %d originates %s of peer wait time (%d%% of total) across %d segment(s), worst in segment %d",
			ra.Rank, fmtDur(ra.CausedWait), int(100*float64(ra.CausedWait)/float64(total)),
			ra.Segments, ra.WorstSegment)
	}
	return nil
}

// commdeadlockAnalyzer flags cycles in the wait-for graph of unmatched
// operations — communication that can structurally never complete. It
// needs no segmentation, only the message-matching facts.
type commdeadlockAnalyzer struct{}

func (commdeadlockAnalyzer) Name() string { return "commdeadlock" }
func (commdeadlockAnalyzer) Doc() string {
	return "unmatched sends and receives whose wait-for dependencies form a cycle across ranks can never complete; such cycles are deadlock candidates, not mere instrumentation gaps"
}
func (commdeadlockAnalyzer) Severity() Severity { return SeverityWarning }
func (commdeadlockAnalyzer) Scope() Scope       { return ScopeCrossRank }
func (commdeadlockAnalyzer) Stream(p *Pass) StreamVisitor {
	return commdeadlockVisitor{p: p}
}

type commdeadlockVisitor struct {
	FinishOnly
	p *Pass
}

func (v commdeadlockVisitor) Finish() error {
	p := v.p
	msgs := p.Messages()
	cycles := causality.DetectCycles(p.NumRanks(), depsFromUnmatched(msgs))
	for i, c := range cycles {
		if i >= maxPerFinding {
			p.Reportf(SeverityWarning, "comm-cycle", -1, -1, 0,
				"%d more communication cycle(s) not listed", len(cycles)-i)
			break
		}
		p.Reportf(SeverityWarning, "comm-cycle", c.Ranks[0], -1, 0,
			"communication cycle among rank(s) %s: %d unmatched operation(s) wait on each other and can never complete",
			fmtRanks(c.Ranks), c.Ops)
	}
	return nil
}
