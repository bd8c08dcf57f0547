package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Resumable per-rank stream readers. OpenRankStreams locates every rank's
// event block of a PVTR archive once — from the rank index of a version-2
// archive, by a framing scan of a version-1 one; afterwards each rank's
// events can be decoded independently, repeatedly, and concurrently
// without ever materializing an event slice — the I/O layer of the
// streaming analysis engine. Directory archives get the same interface
// from OpenDirRankStreams, where the per-rank files provide the framing
// for free. Memory is O(definitions + ranks), never O(events).

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
// upload already in memory). The blocks are located once in
// OpenRankStreams/OpenRankStreamsBytes; StreamRank then decodes straight
// from the backing store — for in-memory archives without copying a
// single event byte.
type RankStreams struct {
	header *Header
	src    io.ReaderAt
	data   []byte // non-nil when the archive is fully in memory
	spans  []rankSpan
}

// OpenRankStreams reads the definitions of the PVTR archive in src (size
// bytes long), locates every rank's block, and returns per-rank stream
// handles. No event is decoded or retained. A version-2 archive's rank
// index is read with one ReadAt and checked; each block's framing is
// then checked by its own StreamRank. A version-1 archive's framing is
// walked here, up to the end marker, so a structurally corrupt archive
// fails here, locating the failure by rank and byte offset, rather than
// mid-analysis.
func OpenRankStreams(src io.ReaderAt, size int64) (*RankStreams, error) {
	buf := windowPool.Get().(*[]byte)
	defer windowPool.Put(buf)
	rs, err := openRankStreams(newStreamDecoder(io.NewSectionReader(src, 0, size), *buf, 0, 0, 0), src, size)
	if err != nil {
		return nil, err
	}
	rs.src = src
	return rs, nil
}

// OpenRankStreamsBytes is OpenRankStreams for an archive already in
// memory, and StreamRank later decodes each rank's block zero-copy — the
// fast path behind uploaded-archive analysis.
func OpenRankStreamsBytes(data []byte) (*RankStreams, error) {
	rs, err := openRankStreams(newSliceDecoder(data, 0, 0, 0), bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	rs.data = data
	return rs, nil
}

// openRankStreams reads the definitions through dec, which reports
// absolute archive offsets, and locates the blocks of the archive that
// src holds, so both Open paths word a failure alike.
func openRankStreams(dec *eventDecoder, src io.ReaderAt, size int64) (*RankStreams, error) {
	h, version, err := readHeader(dec)
	if err != nil {
		return nil, err
	}
	spans, err := locateBlocks(dec, version, len(h.Procs), src, size, true)
	if err != nil {
		return nil, err
	}
	return &RankStreams{header: h, spans: spans}, nil
}

// locateBlocks returns the spans of the nranks event blocks of a PVTR
// archive of the given version, whose definitions dec has just read;
// src holds the whole archive, size bytes long. A version-2 archive's
// blocks come from its rank index. A version-1 archive's come from the
// framing scan through dec (scanBlocks), which is also what words a
// broken index: a framing fault is reported as a version-1 reader
// reports it, and the index fault otherwise. On a framing fault the
// spans of the complete blocks before it are returned with the error.
// located selects the wording of framing faults: the Open paths name
// absolute byte offsets, Read has always named none.
func locateBlocks(dec *eventDecoder, version uint32, nranks int, src io.ReaderAt, size int64, located bool) ([]rankSpan, error) {
	if version != pvtrVersion {
		return scanBlocks(dec, nranks, located)
	}
	spans, err := readRankIndex(src, size, dec.offset(), nranks)
	if err == nil {
		return spans, nil
	}
	if spans, scanErr := scanBlocks(dec, nranks, located); scanErr != nil {
		return spans, scanErr
	}
	return nil, err
}

// scanBlocks walks the framing of every rank's block through dec, then
// checks the end marker: the serial scan that locates a version-1
// archive's blocks.
func scanBlocks(dec *eventDecoder, nranks int, located bool) ([]rankSpan, error) {
	spans := make([]rankSpan, 0, nranks)
	for rank := 0; rank < nranks; rank++ {
		at := dec.offset()
		nev, err := dec.blockCount()
		if err != nil || nev > maxEvents {
			if located {
				return spans, formatf("rank %d event count at byte %d: n=%d err=%v", rank, at, nev, err)
			}
			return spans, formatf("rank %d event count: n=%d truncated=%v", rank, nev, err != nil)
		}
		start := dec.offset()
		if err := dec.skip(nev); err != nil {
			if located {
				return spans, formatf("rank %d at archive byte %d: %v", rank, start, err)
			}
			return spans, formatf("rank %d %v", rank, err)
		}
		spans = append(spans, rankSpan{nev: nev, off: start, len: dec.offset() - start})
	}
	at := dec.offset()
	marker := dec.tail(4)
	if len(marker) < 4 {
		if located {
			return spans, formatf("reading end marker at byte %d: %v", at, io.ErrUnexpectedEOF)
		}
		return spans, formatf("reading end marker: %v", io.ErrUnexpectedEOF)
	}
	if string(marker) != formatEnd {
		return spans, formatf("end marker %q, want %q", marker, formatEnd)
	}
	return spans, nil
}

// readRankIndex reads and checks the rank index that ends the version-2
// archive in src (size bytes, definitions ending at defsEnd), and
// returns the blocks it locates. The size checks come first, so an
// index sized by a hostile rank count fails before anything is
// allocated for it; every later check bounds a block by the ones around
// it. A block's events are not looked at: its decoder checks them, and
// that they fill the block exactly.
func readRankIndex(src io.ReaderAt, size, defsEnd int64, nranks int) ([]rankSpan, error) {
	marker := int64(len(formatEnd))
	if rest := size - defsEnd - marker; rest < 0 || rest/8 < int64(nranks) {
		return nil, formatf("rank index: %d bytes after the definitions at byte %d cannot hold an end marker and %d entries", size-defsEnd, defsEnd, nranks)
	}
	endAt := size - marker - 8*int64(nranks)
	tail := make([]byte, marker+8*int64(nranks))
	if n, err := src.ReadAt(tail, endAt); n < len(tail) {
		return nil, formatf("reading rank index: %v", err)
	}
	if string(tail[:marker]) != formatEnd {
		return nil, formatf("rank index: end marker %q at byte %d, want %q", tail[:marker], endAt, formatEnd)
	}
	if nranks == 0 && endAt != defsEnd {
		return nil, formatf("rank index: no ranks, but the end marker is at byte %d, not %d", endAt, defsEnd)
	}
	entry := func(rank int) uint64 { return binary.LittleEndian.Uint64(tail[marker+8*int64(rank):]) }
	if nranks > 0 && entry(0) != uint64(defsEnd) {
		return nil, formatf("rank index entry 0 is byte %d, not the end of the definitions at byte %d", entry(0), defsEnd)
	}
	spans := make([]rankSpan, nranks)
	var count [binary.MaxVarintLen64]byte
	for rank := range spans {
		off, end := int64(entry(rank)), endAt
		if rank+1 < nranks {
			next := entry(rank + 1)
			if next <= uint64(off) || next >= uint64(endAt) {
				return nil, formatf("rank index entry %d is byte %d, not between rank %d's entry %d and the end marker at byte %d", rank+1, next, rank, off, endAt)
			}
			end = int64(next)
		}
		buf := count[:min(end-off, int64(len(count)))]
		if n, err := src.ReadAt(buf, off); n < len(buf) {
			return nil, formatf("reading rank %d event count at byte %d: %v", rank, off, err)
		}
		nev, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, formatf("rank index: rank %d event count at byte %d does not end before byte %d", rank, off, end)
		}
		blockLen := end - off - int64(n)
		if nev > maxEvents || nev > uint64(blockLen)/minEventEncodedLen {
			return nil, formatf("rank index: rank %d declares %d events in a %d-byte block at byte %d", rank, nev, blockLen, off)
		}
		spans[rank] = rankSpan{nev: nev, off: off + int64(n), len: blockLen}
	}
	return spans, nil
}

// Header returns the archive's definitions.
func (rs *RankStreams) Header() *Header { return rs.header }

// NumRanks returns the number of per-rank streams.
func (rs *RankStreams) NumRanks() int { return len(rs.spans) }

// StreamRank decodes rank's events and feeds them to fn in stream order:
// StreamRuns with a per-event callback.
func (rs *RankStreams) StreamRank(rank int, fn func(Event) error) error {
	return rs.StreamRuns(rank, eachEvent(fn))
}

// StreamRuns decodes rank's events and hands them to fn in stream order,
// a decoded run at a time; a run is valid only during the call. Every
// call re-reads the rank's block from the backing store, so streams are
// resumable; calls for different ranks may run concurrently. Returning
// ErrStopStream from fn ends the stream early without error. A stream
// that runs to its end fails if the block holds bytes after its
// declared events.
func (rs *RankStreams) StreamRuns(rank int, fn func([]Event) error) error {
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
	err := dec.decodeRuns(sp.nev, fn, func(i uint64, err error) error {
		return formatf("rank %d event %d (archive byte %d): %v", rank, i, sp.off+dec.offset(), err)
	})
	if errors.Is(err, ErrStopStream) {
		return nil
	}
	if err == nil && dec.offset() != sp.len {
		return formatf("rank %d: %d bytes after its %d events (archive byte %d)", rank, sp.len-dec.offset(), sp.nev, sp.off+dec.offset())
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
// stream order: StreamRuns with a per-event callback.
func (ds *DirStreams) StreamRank(rank int, fn func(Event) error) error {
	return ds.StreamRuns(rank, eachEvent(fn))
}

// StreamRuns decodes rank's event file and hands the events to fn in
// stream order, a decoded run at a time; a run is valid only during the
// call. Every call re-opens the file, so streams are resumable; calls
// for different ranks may run concurrently. Returning ErrStopStream from
// fn ends the stream early without error.
func (ds *DirStreams) StreamRuns(rank int, fn func([]Event) error) error {
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
	err = dec.decodeRuns(nev, fn, func(i uint64, err error) error {
		return formatf("%s: rank %d event %d: %v", path, rank, i, err)
	})
	if errors.Is(err, ErrStopStream) {
		return nil
	}
	return err
}
