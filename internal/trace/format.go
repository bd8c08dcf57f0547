package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"perfvar/internal/parallel"
)

// Binary archive format ("PVTR", version 2):
//
//	magic "PVTR" | uint32 version
//	string name
//	uvarint #regions  { string name | byte paradigm | byte role }...
//	uvarint #metrics  { string name | string unit | byte mode }...
//	uvarint #procs    { string name }...
//	per proc: uvarint #events, then events with delta-encoded timestamps:
//	  byte kind | uvarint Δtime | kind-specific payload
//	magic "ENDT"
//	rank index: per proc, uint64 little-endian absolute byte offset of
//	  its #events varint
//
// Strings are uvarint length + raw bytes. Timestamps are deltas against the
// previous event of the same stream, so long iterative traces compress to a
// few bytes per event.
//
// The rank index lets readers find every rank's block without walking
// the framing of every event first. It is untrusted input like the rest,
// and accepted only if it is exactly 8·#procs bytes ending the archive,
// ENDT sits right before it, entry 0 is the end of the definitions, the
// entries strictly increase, each points at a count varint (at most
// maxEvents, at least minEventEncodedLen bytes per event) that fits
// before the next entry, and the last block ends at ENDT. The blocks
// between the entries tile the archive, and each block's decoder must
// consume its block exactly, so a v2 archive whose every rank has been
// streamed has had the framing checks of a v1 scan. A broken index is
// an error, never a reason to fall back: readers run the framing scan
// only to word the error, reporting a broken framing (a truncated
// archive) as a version-1 reader would and the index fault otherwise.
//
// Version 1 is the same layout without the rank index; readers still
// take it and locate its blocks by the framing scan. Readers older than
// version 2 reject version-2 archives ("version 2, want 1").

const (
	formatMagic = "PVTR"
	formatEnd   = "ENDT"
	// formatVersion is the version of the pvtt text format and the
	// directory archive anchor, and of unindexed PVTR archives.
	formatVersion = 1
	// pvtrVersion is the PVTR version the writer produces: the
	// version-1 layout followed by the rank index.
	pvtrVersion = 2

	// Hard caps guard the reader against corrupt or hostile inputs.
	maxDefs      = 1 << 20
	maxEvents    = 1 << 33
	maxStringLen = 1 << 16
)

// ErrFormat wraps all archive decoding failures.
var ErrFormat = errors.New("trace: bad archive")

// ErrTooLarge reports an archive exceeding the byte limit handed to
// ReadLimit (or ReadAnyLimit). Servers map it to 413; it is distinct
// from ErrFormat because the archive may be perfectly well-formed.
var ErrTooLarge = errors.New("trace: archive exceeds size limit")

// cappedReader yields at most n bytes from r and fails with ErrTooLarge
// on the first read past the cap — unlike io.LimitReader, which reports
// a clean EOF that a decoder would misdiagnose as a truncated archive.
type cappedReader struct {
	r io.Reader
	n int64
	// tripped records that the cap was hit, surviving any error
	// rewrapping the decoder applies on the way out.
	tripped bool
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if c.n <= 0 {
		// Cap exhausted: probe one byte to tell a stream that ends
		// exactly at the cap (clean EOF) from one running past it.
		var b [1]byte
		n, err := c.r.Read(b[:])
		if n > 0 {
			c.tripped = true
			return 0, ErrTooLarge
		}
		return 0, err
	}
	if int64(len(p)) > c.n {
		p = p[:c.n]
	}
	n, err := c.r.Read(p)
	c.n -= int64(n)
	return n, err
}

func formatf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// Write encodes tr to w in the PVTR binary format.
func Write(w io.Writer, tr *Trace) error {
	counts := make([]uint64, len(tr.Procs))
	for i := range tr.Procs {
		counts[i] = uint64(len(tr.Procs[i].Events))
	}
	return WriteFrom(w, tr.Header(), counts, func(rank int, emit func(Event) error) error {
		for _, ev := range tr.Procs[rank].Events {
			if err := emit(ev); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteFrom encodes a PVTR archive whose events are produced on demand:
// the definitions come from h, rank r's block is declared counts[r]
// events long, and gen is called once per rank to emit exactly that
// many events (in non-decreasing time order) through emit. Nothing is
// materialized — memory stays O(definitions) — so a deterministic
// generator can write archives far larger than RAM
// (workloads.SyntheticConfig.WriteArchive). gen must emit exactly the
// declared count: the count prefixes the block, and a mismatch would
// corrupt the framing, so WriteFrom rejects it. The rank index is built
// from the bytes counted on their way to w, so w need not seek.
func WriteFrom(w io.Writer, h *Header, counts []uint64, gen func(rank int, emit func(Event) error) error) error {
	if len(counts) != len(h.Procs) {
		return formatf("WriteFrom: %d event counts for %d procs", len(counts), len(h.Procs))
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	var scratch [binary.MaxVarintLen64]byte

	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}

	bw.WriteString(formatMagic)
	binary.Write(bw, binary.LittleEndian, uint32(pvtrVersion))
	putString(h.Name)

	putUvarint(uint64(len(h.Regions)))
	for _, r := range h.Regions {
		putString(r.Name)
		bw.WriteByte(byte(r.Paradigm))
		bw.WriteByte(byte(r.Role))
	}
	putUvarint(uint64(len(h.Metrics)))
	for _, m := range h.Metrics {
		putString(m.Name)
		putString(m.Unit)
		bw.WriteByte(byte(m.Mode))
	}
	putUvarint(uint64(len(h.Procs)))
	for i := range h.Procs {
		putString(h.Procs[i].Name)
	}

	index := make([]byte, 0, 8*len(h.Procs))
	for rank := range h.Procs {
		index = binary.LittleEndian.AppendUint64(index, uint64(cw.n)+uint64(bw.Buffered()))
		putUvarint(counts[rank])
		enc := newEventEncoder(bw)
		var emitted uint64
		emit := func(ev Event) error {
			if emitted >= counts[rank] {
				return formatf("rank %d: generator emitted more than the %d declared events", rank, counts[rank])
			}
			emitted++
			if err := enc.encode(ev); err != nil {
				return formatf("rank %d: %v", rank, err)
			}
			return nil
		}
		if err := gen(rank, emit); err != nil {
			return err
		}
		if emitted != counts[rank] {
			return formatf("rank %d: generator emitted %d of %d declared events", rank, emitted, counts[rank])
		}
	}
	bw.WriteString(formatEnd)
	bw.Write(index)
	return bw.Flush()
}

// countingWriter counts the bytes written through it: what WriteFrom
// has flushed, to which the bytes still buffered add the archive offset.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Read decodes a PVTR archive from r with no size cap. Use ReadLimit for
// untrusted inputs.
func Read(r io.Reader) (*Trace, error) { return ReadLimit(r, 0) }

// ReadLimit decodes a PVTR archive from r, reading at most limit bytes.
// An archive that runs past the cap fails with an error satisfying
// errors.Is(err, ErrTooLarge) — the guard that keeps one oversized or
// corrupt upload from slurping unbounded memory. limit <= 0 means no
// cap.
func ReadLimit(r io.Reader, limit int64) (*Trace, error) {
	if limit <= 0 {
		return readArchive(r)
	}
	cr := &cappedReader{r: r, n: limit}
	tr, err := readArchive(cr)
	if err != nil && cr.tripped {
		return nil, fmt.Errorf("%w (limit %d bytes)", ErrTooLarge, limit)
	}
	return tr, err
}

// readArchive slurps the archive and decodes its rank blocks in
// parallel, located by locateBlocks. A framing failure in a version-1
// archive stops the scan, but the complete blocks before it still
// decode: a decode error on a lower rank outranks the scan error, so the
// reported failure is the same one a serial pass would hit first.
func readArchive(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, formatf("reading archive: %v", err)
	}
	dec := newSliceDecoder(data, 0, 0, 0)
	h, version, err := readHeader(dec)
	if err != nil {
		return nil, err
	}
	spans, locateErr := locateBlocks(dec, version, len(h.Procs), bytes.NewReader(data), int64(len(data)), false)
	nregions, nmetrics, nprocs := uint64(len(h.Regions)), uint64(len(h.Metrics)), uint64(len(h.Procs))
	decoded, err := parallel.Map(len(spans), func(rank int) ([]Event, error) {
		sp := spans[rank]
		block := data[sp.off : sp.off+sp.len]
		dec := newSliceDecoder(block, nregions, nmetrics, nprocs)
		evs, err := dec.decodeAll(sp.nev, -1)
		if err != nil {
			return nil, formatf("rank %d event %d: %v", rank, len(evs), err)
		}
		if dec.pos != len(block) {
			return nil, formatf("rank %d: %d bytes after its %d events", rank, len(block)-dec.pos, sp.nev)
		}
		return evs, nil
	})
	if err != nil {
		return nil, err
	}
	if locateErr != nil {
		return nil, locateErr
	}
	tr := &Trace{Name: h.Name, Regions: h.Regions, Metrics: h.Metrics, Procs: make([]ProcessTrace, len(h.Procs))}
	for rank := range tr.Procs {
		tr.Procs[rank] = ProcessTrace{Proc: h.Procs[rank], Events: decoded[rank]}
	}
	return tr, nil
}

// WriteFile writes tr to path in the PVTR binary format.
func WriteFile(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a PVTR archive from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
