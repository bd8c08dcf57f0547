package trace

import (
	"errors"
	"fmt"
)

// ErrInvalid wraps all validation failures so callers can match them with
// errors.Is.
var ErrInvalid = errors.New("trace: invalid")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Validate checks structural trace invariants:
//
//   - per-rank timestamps are non-decreasing,
//   - enter/leave events are properly nested and balanced,
//   - leave timestamps are not earlier than the matching enter,
//   - all region, metric, and peer references are defined,
//   - accumulated metrics are monotonically non-decreasing per rank.
//
// It returns the first violation found, or nil. It is ValidateStreams
// over the trace's own streams.
func (tr *Trace) Validate() error {
	return ValidateStreams(tr.Header(), len(tr.Procs), tr.StreamRank)
}

// ValidateStreams checks the structural invariants of the nranks event
// streams that stream feeds (the shape of Trace.StreamRank), defined by
// h, in one parallel pass (checkStreams). Every rank
// streams to its end, so the answer does not depend on scheduling: the
// lowest rank's stream error when any rank fails to stream, otherwise
// the lowest rank's first violation as Issue.Err, or nil.
func ValidateStreams(h *Header, nranks int, stream func(rank int, fn func(Event) error) error) error {
	perRank, err := checkStreams(h, nranks, stream)
	if err != nil {
		return err
	}
	for _, issues := range perRank {
		if len(issues) > 0 {
			return issues[0].Err()
		}
	}
	return nil
}
