package perfvar

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"perfvar/internal/trace"
)

// Source is the one way to hand measurement data to the analysis
// pipeline: wrap an in-memory trace (TraceSource), stream an archive
// from disk (FileSource) or from bytes already in memory
// (ArchiveSource), or generate a synthetic workload on demand
// (WorkloadSource, SyntheticSource), then run AnalyzeSource. Sources
// whose archive layout supports per-rank framing — PVTR files,
// directory archives, and on-demand generators — stream without ever
// materializing the event streams; the rest are materialized on Open and
// streamed from memory. Either way the single-pass engine analyzes the
// streams, and the results are byte-identical.
type Source interface {
	// Open prepares the source and returns its per-rank event streams.
	// Each call returns an independent handle; Close releases it.
	Open(ctx context.Context) (SourceStreams, error)
}

// SourceStreams is an open source: the archive's definitions plus
// repeatable per-rank event streams.
type SourceStreams interface {
	// Header returns the archive's definitions.
	Header() *TraceHeader
	// NumRanks returns the number of processing elements.
	NumRanks() int
	// StreamRank feeds rank's events to fn in stream order. Every call
	// re-reads the rank's stream from the start (streams are resumable),
	// and calls for different ranks may run concurrently. Returning
	// ErrStopStream from fn ends the stream early without error.
	StreamRank(rank int, fn func(Event) error) error
	// Close releases the handle.
	Close() error
}

// EngineOf reports the engine tag of open streams, as Result.Engine and
// perfvard's X-Perfvar-Engine header carry it: EngineMaterialized when
// an in-memory trace backs the streams, EngineStream otherwise.
func EngineOf(st SourceStreams) string {
	if s, ok := st.(shiftedStreams); ok {
		st = s.SourceStreams
	}
	if _, ok := st.(*traceStreams); ok {
		return EngineMaterialized
	}
	return EngineStream
}

// TraceSource adapts an in-memory trace to the Source API. Analyze and
// AnalyzeContext are thin wrappers over AnalyzeSource with a
// TraceSource.
func TraceSource(tr *Trace) Source { return traceSource{tr: tr} }

type traceSource struct{ tr *Trace }

func (s traceSource) Open(ctx context.Context) (SourceStreams, error) {
	return newTraceStreams(s.tr), nil
}

// traceStreams serves per-rank streams straight from a materialized
// trace's event slices.
type traceStreams struct {
	tr     *Trace
	header *TraceHeader
}

func newTraceStreams(tr *Trace) *traceStreams {
	return &traceStreams{tr: tr, header: tr.Header()}
}

func (s *traceStreams) Header() *TraceHeader { return s.header }
func (s *traceStreams) NumRanks() int        { return s.tr.NumRanks() }
func (s *traceStreams) Close() error         { return nil }

func (s *traceStreams) StreamRank(rank int, fn func(Event) error) error {
	return s.tr.StreamRank(rank, fn)
}

// StreamRuns hands rank's events to the per-rank pass as one run, the
// trace's own slice.
func (s *traceStreams) StreamRuns(rank int, fn func([]Event) error) error {
	return s.tr.StreamRuns(rank, fn)
}

// shiftedSource is a clock-corrected source: it adds shifts[rank] to
// every timestamp of rank as the events stream (CorrectClocksSource).
type shiftedSource struct {
	src    Source
	shifts []int64
}

func (s shiftedSource) Open(ctx context.Context) (SourceStreams, error) {
	st, err := s.src.Open(ctx)
	if err != nil {
		return nil, err
	}
	return shiftedStreams{SourceStreams: st, shifts: s.shifts}, nil
}

type shiftedStreams struct {
	SourceStreams
	shifts []int64
}

// StreamRank shifts rank's events as they stream. The callback runs only
// for a rank the source has, so the shift lookup stays in range.
func (s shiftedStreams) StreamRank(rank int, fn func(Event) error) error {
	return s.SourceStreams.StreamRank(rank, func(ev Event) error {
		ev.Time += s.shifts[rank]
		return fn(ev)
	})
}

// rankStreamer is the shape the trace package's archive stream readers
// (RankStreams, DirStreams) share.
type rankStreamer interface {
	Header() *trace.Header
	NumRanks() int
	StreamRank(rank int, fn func(trace.Event) error) error
	StreamRuns(rank int, fn func([]trace.Event) error) error
}

// archiveStreams adapts a trace-level streamer to SourceStreams.
type archiveStreams struct {
	str    rankStreamer
	closer io.Closer // backing file, when the source owns one
}

func (s *archiveStreams) Header() *TraceHeader { return s.str.Header() }
func (s *archiveStreams) NumRanks() int        { return s.str.NumRanks() }

func (s *archiveStreams) StreamRank(rank int, fn func(Event) error) error {
	return s.str.StreamRank(rank, fn)
}

// StreamRuns hands rank's events to the per-rank pass a decoded run at
// a time.
func (s *archiveStreams) StreamRuns(rank int, fn func([]Event) error) error {
	return s.str.StreamRuns(rank, fn)
}

func (s *archiveStreams) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// FileSource streams the archive at path. PVTR files and directory
// archives (anchor + per-rank files) stream per rank with memory bounded
// by definitions and ranks; text (pvtt) archives — a line-oriented
// format with no per-rank framing — are materialized on Open and
// streamed from memory. The file-or-directory decision is made on the
// opened handle, never by a separate stat, so a path swapped
// concurrently cannot select the wrong decoder.
func FileSource(path string) Source { return fileSource{path: path} }

type fileSource struct{ path string }

func (s fileSource) Open(ctx context.Context) (SourceStreams, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.IsDir() {
		f.Close()
		ds, err := trace.OpenDirRankStreams(s.path)
		if err != nil {
			return nil, err
		}
		return &archiveStreams{str: ds}, nil
	}
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: reading magic: %v", trace.ErrFormat, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if string(magic[:]) == "PVTR" {
		rs, err := trace.OpenRankStreams(f, fi.Size())
		if err != nil {
			f.Close()
			return nil, err
		}
		return &archiveStreams{str: rs, closer: f}, nil
	}
	// pvtt (or unknown magic, which ReadAny will reject with the usual
	// format error): materialize from the same handle.
	tr, err := trace.ReadAny(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	return newTraceStreams(tr), nil
}

// ArchiveSource streams from archive bytes already in memory — the shape
// of an HTTP upload. PVTR bytes stream per rank without an intermediate
// *Trace; pvtt text archives are parsed on Open.
func ArchiveSource(data []byte) Source { return archiveSource{data: data} }

type archiveSource struct{ data []byte }

func (s archiveSource) Open(ctx context.Context) (SourceStreams, error) {
	if len(s.data) >= 4 && string(s.data[:4]) == "PVTR" {
		rs, err := trace.OpenRankStreamsBytes(s.data)
		if err != nil {
			return nil, err
		}
		return &archiveStreams{str: rs}, nil
	}
	tr, err := trace.ReadAny(bytes.NewReader(s.data))
	if err != nil {
		return nil, err
	}
	return newTraceStreams(tr), nil
}

// SyntheticSource streams events produced on demand by gen — no archive
// and no materialized trace ever exists, so the streaming engine can
// analyze workloads of any size in O(ranks × depth + segments) memory.
// h declares the definitions; gen feeds rank's events to fn in stream
// order. gen must be resumable (every StreamRank call regenerates the
// rank's stream from the start, and the engine may stream a rank more
// than once) and safe for concurrent calls on different ranks — a pure
// function of (rank, position), like workloads.SyntheticConfig, is the
// canonical shape. Returning ErrStopStream from fn ends a stream early
// without error.
func SyntheticSource(h *TraceHeader, gen func(rank int, fn func(Event) error) error) Source {
	return synthSource{h: h, gen: gen}
}

type synthSource struct {
	h   *TraceHeader
	gen func(int, func(Event) error) error
}

func (s synthSource) Open(ctx context.Context) (SourceStreams, error) {
	return synthStreams(s), nil
}

type synthStreams synthSource

func (s synthStreams) Header() *TraceHeader { return s.h }
func (s synthStreams) NumRanks() int        { return len(s.h.Procs) }
func (s synthStreams) Close() error         { return nil }

func (s synthStreams) StreamRank(rank int, fn func(Event) error) error {
	if rank < 0 || rank >= len(s.h.Procs) {
		return fmt.Errorf("perfvar: rank %d out of range", rank)
	}
	if err := s.gen(rank, fn); err != nil && !errors.Is(err, ErrStopStream) {
		return err
	}
	return nil
}

// WorkloadSource wraps a trace generator (GenerateFD4 and friends, or
// any measurement producer): the workload is generated on Open and
// streamed from memory.
func WorkloadSource(gen func() (*Trace, error)) Source { return workloadSource{gen: gen} }

type workloadSource struct{ gen func() (*Trace, error) }

func (s workloadSource) Open(ctx context.Context) (SourceStreams, error) {
	tr, err := s.gen()
	if err != nil {
		return nil, err
	}
	return newTraceStreams(tr), nil
}
