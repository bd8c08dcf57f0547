package perfvar

import (
	"encoding/gob"
	"fmt"
	"io"

	"perfvar/internal/core/imbalance"
	"perfvar/internal/trace"
)

// storedResult is the gob envelope of a persisted analysis: the
// streaming-result state of a Result — selection, segment matrix,
// imbalance analysis, MPI-share timeline, and the trace metadata that
// backs reports and span-based rendering. The event streams themselves
// are never persisted, and neither is the source: a restored Result has
// Trace == nil like a streamed one, and the views that stream the source
// again (Causality, Breakdown, Refine) return ErrNoTrace.
type storedResult struct {
	Name        string
	Ranks       int
	Events      int64
	First, Last trace.Time

	Selection   Selection
	Matrix      *Matrix
	Analysis    *imbalance.Analysis
	MPIFraction []float64
	Engine      string
}

// EncodeStored serializes the result for perfvard's disk tier. The
// fused lint outcome and any retained trace or source are deliberately
// excluded — they are re-derivable from the archive, and the disk tier
// must restore results without holding event streams.
func (r *Result) EncodeStored(w io.Writer) error {
	if r.Matrix == nil || r.Analysis == nil {
		return fmt.Errorf("perfvar: cannot persist an incomplete result")
	}
	info := r.info
	if r.Trace != nil {
		// Materialized results carry their metadata in the trace; fill
		// the info mirror so the restored (streaming-shaped) result
		// reports identically.
		first, last := r.Trace.Span()
		info = resultInfo{
			name:   r.Trace.Name,
			ranks:  r.Trace.NumRanks(),
			events: int64(r.Trace.NumEvents()),
			first:  first,
			last:   last,
		}
	}
	// Analysis.Matrix aliases Result.Matrix; gob flattens pointers, so
	// encoding both would double the payload. Strip the alias and
	// restore it on decode.
	analysis := *r.Analysis
	analysis.Matrix = nil
	return gob.NewEncoder(w).Encode(storedResult{
		Name:        info.name,
		Ranks:       info.ranks,
		Events:      info.events,
		First:       info.first,
		Last:        info.last,
		Selection:   r.Selection,
		Matrix:      r.Matrix,
		Analysis:    &analysis,
		MPIFraction: r.MPIFraction,
		Engine:      r.Engine,
	})
}

// DecodeStoredResult restores a Result persisted with EncodeStored.
// The restored result has no materialized trace and no re-openable
// source: report, heatmap, histogram, and phase views work as on any
// streaming result; Causality, Breakdown and Refine return ErrNoTrace
// (CausalitySource over the archive takes the restored Matrix).
func DecodeStoredResult(rd io.Reader) (*Result, error) {
	var sr storedResult
	if err := gob.NewDecoder(rd).Decode(&sr); err != nil {
		return nil, fmt.Errorf("perfvar: decode stored result: %w", err)
	}
	if sr.Matrix == nil || sr.Analysis == nil {
		return nil, fmt.Errorf("perfvar: stored result is incomplete")
	}
	sr.Analysis.Matrix = sr.Matrix
	return &Result{
		Selection:   sr.Selection,
		Matrix:      sr.Matrix,
		Analysis:    sr.Analysis,
		MPIFraction: sr.MPIFraction,
		Engine:      sr.Engine,
		info: resultInfo{
			name:   sr.Name,
			ranks:  sr.Ranks,
			events: sr.Events,
			first:  sr.First,
			last:   sr.Last,
		},
	}, nil
}
