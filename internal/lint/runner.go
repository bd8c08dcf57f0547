package lint

import (
	"context"

	"perfvar/internal/parallel"
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
// lint-local subset of perfvar.SourceStreams, which satisfies it
// structurally. StreamRank may be called concurrently for different
// ranks and more than once per rank (the run makes a second pass when
// segmentation facts are needed and no host engine adopted its
// segments via AdoptSegments).
type Streams interface {
	// Header returns the trace definitions.
	Header() *trace.Header
	// NumRanks returns the number of ranks.
	NumRanks() int
	// StreamRank replays one rank's events in stream order. A
	// trace.ErrStopStream return from fn ends the rank without error.
	StreamRank(rank int, fn func(trace.Event) error) error
}

// Run executes the analyzers over tr and collects every diagnostic. A
// trace is its own Streams, so Run is RunSource over tr: both entry
// points share all analyzer logic and produce identical results.
func Run(tr *trace.Trace, opts Options) *Result {
	res, _ := RunSource(context.Background(), tr, opts) // a trace's streams never fail
	return res
}

// RunSource executes the analyzers over a source's event streams
// without materializing the trace: one streaming sweep feeds every
// analyzer's visitor and the shared summary facts, and a second sweep
// runs only when segmentation facts are needed. Memory stays
// O(ranks × (depth + ops)) instead of O(events). Cancellation is checked
// between ranks and analyzers, and a cancelled run returns nil with
// ctx.Err() — partial diagnostics are discarded rather than passed off
// as a full lint.
func RunSource(ctx context.Context, src Streams, opts Options) (*Result, error) {
	nranks := src.NumRanks()
	run := NewStreamRun(src.Header(), nranks, opts)
	err := parallel.ForEachCtx(ctx, nranks, func(rank int) error {
		if err := src.StreamRank(rank, func(ev trace.Event) error {
			run.FeedEvent(rank, ev)
			return nil
		}); err != nil {
			return err
		}
		run.EndRank(rank)
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if run.BeginSegments() {
		err := parallel.ForEachCtx(ctx, nranks, func(rank int) error {
			feeding := true
			if err := src.StreamRank(rank, func(ev trace.Event) error {
				if feeding {
					feeding = run.FeedSegment(rank, ev)
				}
				return nil
			}); err != nil {
				return err
			}
			run.EndSegmentRank(rank)
			return nil
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
	}
	return run.Finish(ctx)
}

func sortNames(names []string) {
	sortSlice(names, func(a, b string) bool { return a < b })
}
