// Package lint is a pluggable static-analysis framework over traces,
// modeled on golang.org/x/tools/go/analysis but dependency-free.
//
// The paper's pipeline (dominant function → segments → SOS-time) silently
// produces garbage when the input trace is subtly malformed or
// semantically odd: mismatched enter/leave nesting, cross-rank clock
// skew, unmatched sends, or no function eligible for the 2p-invocation
// dominance rule. lint catches these before they reach the analyzers.
//
// An Analyzer observes the trace through a StreamVisitor and reports
// Diagnostics via a Pass. The runner drives every analyzer's visitor in
// one shared streaming sweep over the per-rank event streams — whether
// the trace is materialized in memory (Run) or decoded frame-by-frame
// from an archive (RunSource) — and maintains compact summary facts
// (structural issues, per-rank op summaries, call-stack replay, message
// matching, dominant-function selection) so analyzers do not redo
// O(events) work and never need the full event history. The runner
// collects every diagnostic — not just the first violation — into one
// sorted Result; both drive paths share all analyzer logic and produce
// byte-identical results. Mechanically repairable findings can be fixed
// with Fix (the -fix mode of pvtlint, which needs a materialized trace).
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"perfvar/internal/trace"
)

// Severity grades a diagnostic.
type Severity uint8

// Severity values, ordered: filtering by minimum severity keeps
// everything at or above the threshold.
const (
	// SeverityInfo marks observations that are legal but worth knowing
	// (zero-duration invocations, skipped analyses).
	SeverityInfo Severity = iota
	// SeverityWarning marks semantic oddities that make analysis results
	// questionable (clock skew, unmatched sends, no dominant function).
	SeverityWarning
	// SeverityError marks structural violations that break analyses
	// outright (improper nesting, undefined references, non-monotone
	// accumulated counters).
	SeverityError
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalText encodes the severity as its name.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a severity name.
func (s *Severity) UnmarshalText(text []byte) error {
	v, ok := ParseSeverity(string(text))
	if !ok {
		return fmt.Errorf("lint: unknown severity %q", text)
	}
	*s = v
	return nil
}

// ParseSeverity maps a severity name to its value.
func ParseSeverity(name string) (Severity, bool) {
	switch name {
	case "info":
		return SeverityInfo, true
	case "warning", "warn":
		return SeverityWarning, true
	case "error":
		return SeverityError, true
	}
	return 0, false
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Analyzer is the name of the reporting analyzer.
	Analyzer string `json:"analyzer"`
	// Code is a stable kebab-case identifier of the finding type within
	// the analyzer (e.g. "mismatched-leave", "causality-violation").
	Code string `json:"code"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Rank is the affected rank, or -1 for trace-global findings.
	Rank trace.Rank `json:"rank"`
	// Event is the index into the rank's event stream, or -1 when the
	// finding is not tied to a single event.
	Event int `json:"event"`
	// Time is the virtual timestamp of the finding (0 when unset).
	Time trace.Time `json:"time"`
	// Message describes the finding.
	Message string `json:"message"`
	// SuggestedFix describes the mechanical repair, if one exists.
	SuggestedFix string `json:"suggested_fix,omitempty"`
	// Fixable reports whether Fix repairs this finding.
	Fixable bool `json:"fixable,omitempty"`
}

// Scope declares the fact granularity an analyzer consumes.
type Scope uint8

const (
	// ScopeRank marks analyzers that inspect each rank's event stream
	// independently.
	ScopeRank Scope = iota
	// ScopeCrossRank marks analyzers whose facts span ranks: message
	// matching, dominant-function segmentation, or the message-dependency
	// graph. The runner schedules these first so the expensive shared
	// facts start computing while per-rank passes fill the idle workers.
	ScopeCrossRank
)

// String returns the kebab-case scope name.
func (s Scope) String() string {
	switch s {
	case ScopeRank:
		return "rank"
	case ScopeCrossRank:
		return "cross-rank"
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// StreamAnalyzer is one pluggable trace check in the streaming visitor
// model. Implementations must be stateless: Stream may be invoked
// concurrently for different passes, and all per-run state lives in the
// returned visitor.
type StreamAnalyzer interface {
	// Name identifies the analyzer (kebab-case, unique in the registry).
	Name() string
	// Doc is a one-paragraph description of what the analyzer catches.
	Doc() string
	// Severity is the highest severity the analyzer can emit.
	Severity() Severity
	// Scope declares whether the analyzer works per rank or across ranks.
	Scope() Scope
	// Stream returns a fresh visitor for one run. The visitor observes
	// the event streams (if it cares) and reports findings via
	// pass.Report; most analyzers only implement Finish, reading the
	// summary facts the runner maintains on the pass.
	Stream(pass *Pass) StreamVisitor
}

// Analyzer is the historical name of StreamAnalyzer, kept as an alias
// for registry users and option structs.
type Analyzer = StreamAnalyzer

// StreamVisitor consumes one run's event streams. The runner feeds each
// rank's events in stream order; VisitEvent and FinishRank calls are
// sequential within a rank but concurrent across ranks, so
// implementations must keep per-rank state disjoint (index by rank) and
// may call Pass.Report from any of them (reporting is goroutine-safe).
// A non-nil error from any method aborts only this analyzer; the runner
// converts it into an error-severity diagnostic.
type StreamVisitor interface {
	// VisitEvent observes one event of one rank's stream.
	VisitEvent(rank trace.Rank, ev trace.Event) error
	// FinishRank runs after the last event of a rank's stream.
	FinishRank(rank trace.Rank) error
	// Finish runs once after every rank finished (and after the shared
	// barrier facts — selection, segments — are available). Cross-rank
	// reporting belongs here.
	Finish() error
}

// FinishOnly is a StreamVisitor base for analyzers with no per-event
// work: embed it and implement only Finish. The runner detects the
// embedding and skips feeding events to such visitors entirely. Do not
// embed it when overriding VisitEvent or FinishRank — the runner would
// still skip the visitor.
type FinishOnly struct{}

// VisitEvent does nothing.
func (FinishOnly) VisitEvent(trace.Rank, trace.Event) error { return nil }

// FinishRank does nothing.
func (FinishOnly) FinishRank(trace.Rank) error { return nil }

// passive marks visitors that do not want the event feed.
func (FinishOnly) passive() {}

// Result is the outcome of one lint run.
type Result struct {
	// TraceName labels the linted trace.
	TraceName string `json:"trace"`
	// Analyzers lists the analyzer names that ran, sorted.
	Analyzers []string `json:"analyzers"`
	// Diagnostics holds every finding, sorted canonically by
	// (severity descending, rank, time, analyzer, event, code, message):
	// the most severe findings come first, ties are broken by where and
	// when the finding occurred, and the full key is a total order so
	// repeated runs — streaming or materialized, at any worker count —
	// serialize byte-identically.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Count returns the number of diagnostics with exactly severity sev.
func (r *Result) Count(sev Severity) int {
	n := 0
	for i := range r.Diagnostics {
		if r.Diagnostics[i].Severity == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any error-severity diagnostic was collected.
func (r *Result) HasErrors() bool { return r.Count(SeverityError) > 0 }

// ByAnalyzer returns the diagnostics of one analyzer, in report order.
func (r *Result) ByAnalyzer(name string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Analyzer == name {
			out = append(out, d)
		}
	}
	return out
}

// sortDiagnostics is the one canonical diagnostic ordering: severity
// descending, then (rank, time, analyzer, event, code, message)
// ascending. Every runner path sorts here and nowhere else.
func (r *Result) sortDiagnostics() {
	sort.Slice(r.Diagnostics, func(i, j int) bool {
		a, b := &r.Diagnostics[i], &r.Diagnostics[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// WriteJSON emits the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText emits a human-readable report grouped by analyzer. maxPer
// caps the findings printed per analyzer (0 = all); the remainder is
// summarized in one line.
func (r *Result) WriteText(w io.Writer, maxPer int) error {
	if len(r.Diagnostics) == 0 {
		_, err := fmt.Fprintf(w, "lint: %q is clean (%d analyzers)\n", r.TraceName, len(r.Analyzers))
		return err
	}
	fmt.Fprintf(w, "lint: %q: %d error(s), %d warning(s), %d info\n",
		r.TraceName, r.Count(SeverityError), r.Count(SeverityWarning), r.Count(SeverityInfo))
	for _, name := range r.Analyzers {
		diags := r.ByAnalyzer(name)
		if len(diags) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (%d):\n", name, len(diags))
		for i, d := range diags {
			if maxPer > 0 && i >= maxPer {
				fmt.Fprintf(w, "  ... %d more\n", len(diags)-i)
				break
			}
			loc := "trace"
			if d.Rank >= 0 {
				loc = fmt.Sprintf("rank %d", d.Rank)
				if d.Event >= 0 {
					loc += fmt.Sprintf(" event %d", d.Event)
				}
			}
			fmt.Fprintf(w, "  %-7s %s: %s\n", d.Severity, loc, d.Message)
			if d.SuggestedFix != "" {
				fmt.Fprintf(w, "          fix: %s\n", d.SuggestedFix)
			}
		}
	}
	return nil
}
