package trace

import (
	"fmt"

	"perfvar/internal/parallel"
)

// This file is the single implementation of the structural trace
// invariants. Trace.Validate and ValidateStreams (first violation,
// ErrInvalid semantics) wrap checkStreams, and the lint analyzers in
// internal/lint (all violations, one diagnostic each) feed the same
// StreamChecker, so the code paths cannot drift.

// IssueCode classifies one structural violation.
type IssueCode uint8

// IssueCode values, grouped by the lint analyzer that reports them.
const (
	// Nesting/ordering violations (lint analyzer "nesting").
	IssueUnsorted IssueCode = iota
	IssueUndefinedRegion
	IssueLeaveWithoutEnter
	IssueMismatchedLeave
	IssueLeaveBeforeEnter
	IssueUnclosedRegion
	IssueUnknownKind
	// Metric violations (lint analyzer "metricmode").
	IssueUndefinedMetric
	IssueMetricDecreased
	// Message violations (lint analyzer "msgmatch").
	IssueUndefinedPeer
	IssueNegativeBytes
)

// String returns a stable kebab-case name for the code.
func (c IssueCode) String() string {
	switch c {
	case IssueUnsorted:
		return "unsorted-timestamps"
	case IssueUndefinedRegion:
		return "undefined-region"
	case IssueLeaveWithoutEnter:
		return "leave-without-enter"
	case IssueMismatchedLeave:
		return "mismatched-leave"
	case IssueLeaveBeforeEnter:
		return "leave-before-enter"
	case IssueUnclosedRegion:
		return "unclosed-region"
	case IssueUnknownKind:
		return "unknown-event-kind"
	case IssueUndefinedMetric:
		return "undefined-metric"
	case IssueMetricDecreased:
		return "metric-decreased"
	case IssueUndefinedPeer:
		return "undefined-peer"
	case IssueNegativeBytes:
		return "negative-bytes"
	}
	return fmt.Sprintf("issue(%d)", uint8(c))
}

// Issue is one structural violation found by a StreamChecker.
type Issue struct {
	Code IssueCode
	Rank Rank
	// Event is the index into the rank's event stream, or -1 for
	// stream-level issues (unclosed regions at end of stream).
	Event int
	// Time is the timestamp of the offending event (the stream's last
	// timestamp for stream-level issues).
	Time Time
	// Message describes the violation without the rank/event prefix.
	Message string
}

// Err converts the issue into a Validate-style ErrInvalid error.
func (is Issue) Err() error {
	if is.Event < 0 {
		return invalidf("rank %d: %s", is.Rank, is.Message)
	}
	return invalidf("rank %d event %d: %s", is.Rank, is.Event, is.Message)
}

// Check reports every structural violation of the trace: each rank's
// issues in event order, ranks in order (see checkStreams).
func (tr *Trace) Check() []Issue {
	perRank, _ := checkStreams(tr.Header(), len(tr.Procs), tr.StreamRank) // a trace's streams never fail
	var out []Issue
	for _, issues := range perRank {
		out = append(out, issues...)
	}
	return out
}

// checkStreams feeds each of nranks event streams defined by h through a
// StreamChecker on the worker pool and returns every rank's issues. The
// checker recovers per violation (a mismatched leave pops through the
// stack when the region is open further down, a backward timestamp
// resets the ordering cursor) so one defect does not drown the stream in
// follow-up noise. Every rank streams to its end; the error is the
// lowest failing rank's stream error.
func checkStreams(h *Header, nranks int, stream func(rank int, fn func(Event) error) error) ([][]Issue, error) {
	issues := make([][]Issue, nranks)
	err := parallel.ForEach(nranks, func(rank int) error {
		c := NewStreamChecker(Rank(rank), h.Regions, h.Metrics, nranks)
		err := stream(rank, func(ev Event) error {
			c.Feed(ev)
			return nil
		})
		issues[rank] = c.Finish()
		return err
	})
	return issues, err
}
