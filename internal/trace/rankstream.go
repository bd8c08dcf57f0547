package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Resumable per-rank stream readers. OpenRankStreams scans a PVTR
// archive's framing once to locate every rank's event block; afterwards
// each rank's events can be decoded independently, repeatedly, and
// concurrently without ever materializing an event slice — the I/O layer
// of the streaming analysis engine. Directory archives get the same
// interface from OpenDirRankStreams, where the per-rank files provide the
// framing for free. Memory is O(definitions + ranks), never O(events).

// windowPool recycles the event-decoder windows behind stream decodes
// and framing scans (newStreamDecoder), so an analysis over many ranks
// reuses a few 64 KiB buffers instead of allocating one per StreamRank
// call.
var windowPool = sync.Pool{
	New: func() any { b := make([]byte, 1<<16); return &b },
}

// rankSpan locates one rank's event block inside an archive.
type rankSpan struct {
	nev uint64
	off int64 // absolute byte offset of the block's first event
	len int64 // encoded byte length of the block
}

// RankStreams provides independent per-rank event streams over a PVTR
// archive backed by an io.ReaderAt (an open file) or a byte slice (an
// upload already in memory). The framing scan runs once in
// OpenRankStreams/OpenRankStreamsBytes; StreamRank then decodes straight
// from the backing store — for in-memory archives without copying a
// single event byte.
type RankStreams struct {
	header *Header
	src    io.ReaderAt
	data   []byte // non-nil when the archive is fully in memory
	spans  []rankSpan
}

// OpenRankStreams scans the PVTR archive in src (size bytes long) and
// returns per-rank stream handles. The scan parses the definitions and
// walks the event framing once — no event is decoded or retained — and
// verifies the end marker, so a structurally corrupt archive fails here,
// locating the failure by rank and byte offset, rather than mid-analysis.
func OpenRankStreams(src io.ReaderAt, size int64) (*RankStreams, error) {
	buf := windowPool.Get().(*[]byte)
	defer windowPool.Put(buf)
	rs, err := scanRankStreams(newStreamDecoder(io.NewSectionReader(src, 0, size), *buf, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	rs.src = src
	return rs, nil
}

// OpenRankStreamsBytes is OpenRankStreams for an archive already in
// memory. The framing scan runs directly over the byte slice, and
// StreamRank later decodes each rank's block zero-copy — the fast path
// behind uploaded-archive analysis.
func OpenRankStreamsBytes(data []byte) (*RankStreams, error) {
	rs, err := scanRankStreams(newSliceDecoder(data, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	rs.data = data
	return rs, nil
}

// scanRankStreams is the framing scan behind both Open paths: it reads
// the definitions, then each rank's event count and block framing, then
// the end marker, all through dec, which reports absolute archive
// offsets — so both paths locate a failure in the same words.
func scanRankStreams(dec *eventDecoder) (*RankStreams, error) {
	h, err := readHeader(dec)
	if err != nil {
		return nil, err
	}
	spans := make([]rankSpan, len(h.Procs))
	for rank := range spans {
		at := dec.offset()
		nev, err := dec.blockCount()
		if err != nil || nev > maxEvents {
			return nil, formatf("rank %d event count at byte %d: n=%d err=%v", rank, at, nev, err)
		}
		start := dec.offset()
		if err := dec.skip(nev); err != nil {
			return nil, formatf("rank %d at archive byte %d: %v", rank, start, err)
		}
		spans[rank] = rankSpan{nev: nev, off: start, len: dec.offset() - start}
	}
	at := dec.offset()
	marker := dec.tail(4)
	if len(marker) < 4 {
		return nil, formatf("reading end marker at byte %d: %v", at, io.ErrUnexpectedEOF)
	}
	if string(marker) != formatEnd {
		return nil, formatf("end marker %q, want %q", marker, formatEnd)
	}
	return &RankStreams{header: h, spans: spans}, nil
}

// Header returns the archive's definitions.
func (rs *RankStreams) Header() *Header { return rs.header }

// NumRanks returns the number of per-rank streams.
func (rs *RankStreams) NumRanks() int { return len(rs.spans) }

// StreamRank decodes rank's events and feeds them to fn in stream order.
// Every call re-reads the rank's block from the backing store, so streams
// are resumable; calls for different ranks may run concurrently.
// Returning ErrStopStream from fn ends the stream early without error.
func (rs *RankStreams) StreamRank(rank int, fn func(Event) error) error {
	if rank < 0 || rank >= len(rs.spans) {
		return formatf("rank %d out of range", rank)
	}
	sp := rs.spans[rank]
	nregions := uint64(len(rs.header.Regions))
	nmetrics := uint64(len(rs.header.Metrics))
	nprocs := uint64(len(rs.header.Procs))
	var dec *eventDecoder
	if rs.data != nil {
		dec = newSliceDecoder(rs.data[sp.off:sp.off+sp.len], nregions, nmetrics, nprocs)
	} else {
		buf := windowPool.Get().(*[]byte)
		defer windowPool.Put(buf)
		dec = newStreamDecoder(io.NewSectionReader(rs.src, sp.off, sp.len), *buf, nregions, nmetrics, nprocs)
	}
	err := dec.decodeEach(sp.nev, fn, func(i uint64, err error) error {
		return formatf("rank %d event %d (archive byte %d): %v", rank, i, sp.off+dec.offset(), err)
	})
	if errors.Is(err, ErrStopStream) {
		return nil
	}
	return err
}

// DirStreams provides per-rank event streams over a directory archive.
// The anchor's definitions are read once in OpenDirRankStreams; each
// StreamRank call decodes the rank's own event file.
type DirStreams struct {
	header *Header
	dir    string
}

// OpenDirRankStreams opens the directory archive at dir for per-rank
// streaming. Missing rank files stream zero events, mirroring ReadDir.
func OpenDirRankStreams(dir string) (*DirStreams, error) {
	anchor, err := readAnchor(filepath.Join(dir, anchorName))
	if err != nil {
		return nil, err
	}
	h := &Header{Name: anchor.Name, Regions: anchor.Regions, Metrics: anchor.Metrics}
	for i := range anchor.Procs {
		h.Procs = append(h.Procs, anchor.Procs[i].Proc)
	}
	return &DirStreams{header: h, dir: dir}, nil
}

// Header returns the archive's definitions.
func (ds *DirStreams) Header() *Header { return ds.header }

// NumRanks returns the number of per-rank streams.
func (ds *DirStreams) NumRanks() int { return len(ds.header.Procs) }

// StreamRank decodes rank's event file and feeds the events to fn in
// stream order. Every call re-opens the file, so streams are resumable;
// calls for different ranks may run concurrently. Returning ErrStopStream
// from fn ends the stream early without error.
func (ds *DirStreams) StreamRank(rank int, fn func(Event) error) error {
	if rank < 0 || rank >= len(ds.header.Procs) {
		return formatf("rank %d out of range", rank)
	}
	path := filepath.Join(ds.dir, rankFileName(rank))
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil // a rank that recorded nothing
	}
	if err != nil {
		return err
	}
	defer f.Close()
	buf := windowPool.Get().(*[]byte)
	defer windowPool.Put(buf)
	h := ds.header
	dec, nev, err := openRankFile(f, *buf, path, rank, uint64(len(h.Regions)), uint64(len(h.Metrics)), uint64(len(h.Procs)))
	if err != nil {
		return err
	}
	err = dec.decodeEach(nev, fn, func(i uint64, err error) error {
		return formatf("%s: rank %d event %d: %v", path, rank, i, err)
	})
	if errors.Is(err, ErrStopStream) {
		return nil
	}
	return err
}
