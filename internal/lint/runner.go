package lint

import (
	"context"

	"perfvar/internal/rankpass"
	"perfvar/internal/trace"
)

// DefaultMinLatency is the assumed minimal network latency for
// message-causality checks when Options.MinLatency is zero (1 µs, the
// same default cmd/pvtdump -clockcheck uses).
const DefaultMinLatency = trace.Microsecond

// Options configure one lint run.
type Options struct {
	// Analyzers selects the analyzers to run; nil runs all registered
	// ones.
	Analyzers []Analyzer
	// MinSeverity drops diagnostics below the threshold from the result.
	MinSeverity Severity
	// MinLatency is the assumed minimal network latency for the
	// clockskew analyzer; zero means DefaultMinLatency.
	MinLatency trace.Duration
}

// Streams is the per-rank event-stream view a lint run consumes — the
// stream view of the one per-rank pass, which perfvar.SourceStreams
// satisfies structurally. StreamRank may be called concurrently for
// different ranks. A run streams each rank once, and a second time only
// through the pass's fallback: when a rank evicted the dominant
// function's candidate segments over budget.
type Streams = rankpass.Streams

// Run executes the analyzers over tr and collects every diagnostic. A
// trace is its own Streams, so Run is RunSource over tr: both entry
// points share all analyzer logic and produce identical results.
func Run(tr *trace.Trace, opts Options) *Result {
	res, _ := RunSource(context.Background(), tr, opts) // a trace's streams never fail
	return res
}

// RunSource executes the analyzers over a source's event streams
// without materializing the trace. One per-rank pass feeds every
// analyzer's visitor and the shared summary facts, the dominant
// function's segments included, so each rank is streamed once; only
// the pass's eviction fallback streams the ranks again. Memory stays
// O(ranks × (depth + ops + candidate segments)) instead of O(events).
// Cancellation is checked between ranks and analyzers, and a cancelled
// run returns nil with ctx.Err() — partial diagnostics are discarded
// rather than passed off as a full lint.
func RunSource(ctx context.Context, src Streams, opts Options) (*Result, error) {
	run := NewStreamRun(src.Header(), src.NumRanks(), opts)
	var cfg rankpass.Config
	run.Configure(&cfg)
	p, err := rankpass.Run(ctx, src, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	defer p.Release()
	return run.Finish(ctx, p)
}

func sortNames(names []string) {
	sortSlice(names, func(a, b string) bool { return a < b })
}
