package perfvar

import (
	"encoding/gob"
	"fmt"
	"io"

	"perfvar/internal/core/imbalance"
	"perfvar/internal/trace"
)

// storedResult is the gob envelope of a persisted analysis: the state of
// a Result — selection, segment matrix, imbalance analysis, MPI-share
// timeline, and the trace metadata that backs reports and span-based
// rendering. The event streams themselves are never persisted, and
// neither is the source: the operations that stream the source again
// (Causality, Breakdown, Refine, SlowestIterationsTrace) return
// ErrNoTrace on a restored Result.
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
// fused lint outcome and the source are deliberately excluded — they
// are re-derivable from the archive, and the disk tier must restore
// results without holding event streams.
func (r *Result) EncodeStored(w io.Writer) error {
	if r.Matrix == nil || r.Analysis == nil {
		return fmt.Errorf("perfvar: cannot persist an incomplete result")
	}
	// Analysis.Matrix aliases Result.Matrix; gob flattens pointers, so
	// encoding both would double the payload. Strip the alias and
	// restore it on decode.
	analysis := *r.Analysis
	analysis.Matrix = nil
	return gob.NewEncoder(w).Encode(storedResult{
		Name:        r.info.name,
		Ranks:       r.info.ranks,
		Events:      r.info.events,
		First:       r.info.first,
		Last:        r.info.last,
		Selection:   r.Selection,
		Matrix:      r.Matrix,
		Analysis:    &analysis,
		MPIFraction: r.MPIFraction,
		Engine:      r.Engine,
	})
}

// DecodeStoredResult restores a Result persisted with EncodeStored.
// The restored result has no re-openable source: report, heatmap,
// histogram, and phase views work as on any result; Causality,
// Breakdown, Refine and SlowestIterationsTrace return ErrNoTrace
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
