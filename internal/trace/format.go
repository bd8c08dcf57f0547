package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"perfvar/internal/parallel"
)

// Binary archive format ("PVTR", version 1):
//
//	magic "PVTR" | uint32 version
//	string name
//	uvarint #regions  { string name | byte paradigm | byte role }...
//	uvarint #metrics  { string name | string unit | byte mode }...
//	uvarint #procs    { string name }...
//	per proc: uvarint #events, then events with delta-encoded timestamps:
//	  byte kind | uvarint Δtime | kind-specific payload
//	magic "ENDT"
//
// Strings are uvarint length + raw bytes. Timestamps are deltas against the
// previous event of the same stream, so long iterative traces compress to a
// few bytes per event.

const (
	formatMagic   = "PVTR"
	formatEnd     = "ENDT"
	formatVersion = 1

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
// corrupt the framing, so WriteFrom rejects it.
func WriteFrom(w io.Writer, h *Header, counts []uint64, gen func(rank int, emit func(Event) error) error) error {
	if len(counts) != len(h.Procs) {
		return formatf("WriteFrom: %d event counts for %d procs", len(counts), len(h.Procs))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
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
	binary.Write(bw, binary.LittleEndian, uint32(formatVersion))
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

	for rank := range h.Procs {
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
	return bw.Flush()
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

func readArchive(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)

	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	readString := func() (string, error) {
		n, err := readUvarint()
		if err != nil {
			return "", err
		}
		if n > maxStringLen {
			return "", formatf("string length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, formatf("reading magic: %v", err)
	}
	if string(magic[:]) != formatMagic {
		return nil, formatf("magic %q, want %q", magic[:], formatMagic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, formatf("reading version: %v", err)
	}
	if version != formatVersion {
		return nil, formatf("version %d, want %d", version, formatVersion)
	}

	name, err := readString()
	if err != nil {
		return nil, formatf("reading name: %v", err)
	}

	nregions, err := readUvarint()
	if err != nil || nregions > maxDefs {
		return nil, formatf("region count: n=%d err=%v", nregions, err)
	}
	var regions []Region
	if nregions > 0 {
		regions = make([]Region, nregions)
	}
	for i := range regions {
		rname, err := readString()
		if err != nil {
			return nil, formatf("region %d name: %v", i, err)
		}
		pb, err := br.ReadByte()
		if err != nil {
			return nil, formatf("region %d paradigm: %v", i, err)
		}
		rb, err := br.ReadByte()
		if err != nil {
			return nil, formatf("region %d role: %v", i, err)
		}
		regions[i] = Region{ID: RegionID(i), Name: rname, Paradigm: Paradigm(pb), Role: RegionRole(rb)}
	}

	nmetrics, err := readUvarint()
	if err != nil || nmetrics > maxDefs {
		return nil, formatf("metric count: n=%d err=%v", nmetrics, err)
	}
	var metrics []Metric
	if nmetrics > 0 {
		metrics = make([]Metric, nmetrics)
	}
	for i := range metrics {
		mname, err := readString()
		if err != nil {
			return nil, formatf("metric %d name: %v", i, err)
		}
		unit, err := readString()
		if err != nil {
			return nil, formatf("metric %d unit: %v", i, err)
		}
		mb, err := br.ReadByte()
		if err != nil {
			return nil, formatf("metric %d mode: %v", i, err)
		}
		metrics[i] = Metric{ID: MetricID(i), Name: mname, Unit: unit, Mode: MetricMode(mb)}
	}

	nprocs, err := readUvarint()
	if err != nil || nprocs > maxDefs {
		return nil, formatf("proc count: n=%d err=%v", nprocs, err)
	}
	tr := New(name, int(nprocs))
	tr.Regions = regions
	tr.Metrics = metrics
	for i := 0; i < int(nprocs); i++ {
		pname, err := readString()
		if err != nil {
			return nil, formatf("proc %d name: %v", i, err)
		}
		tr.Procs[i].Proc.Name = pname
	}

	// The event streams are varint/delta-encoded with no index, so the
	// rank-block boundaries are unknown up front. Slurp the remainder and
	// run a cheap serial framing scan (skipEvents) to locate each rank's
	// byte span, then decode the independent blocks in parallel. A framing
	// failure aborts the scan but the complete blocks before it still
	// decode: a decode error on a lower rank outranks the scan error, so
	// the reported failure is the same one a serial pass would hit first.
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, formatf("reading event streams: %v", err)
	}
	type block struct {
		nev  uint64
		data []byte
	}
	blocks := make([]block, 0, int(nprocs))
	scan := newSliceDecoder(rest, 0, 0, 0)
	var scanErr error
	for rank := 0; rank < int(nprocs); rank++ {
		nev, err := scan.blockCount()
		if err != nil || nev > maxEvents {
			scanErr = formatf("rank %d event count: n=%d truncated=%v", rank, nev, err != nil)
			break
		}
		start := scan.pos
		if err := scan.skip(nev); err != nil {
			scanErr = formatf("rank %d %v", rank, err)
			break
		}
		blocks = append(blocks, block{nev: nev, data: rest[start:scan.pos]})
	}
	decoded, err := parallel.Map(len(blocks), func(rank int) ([]Event, error) {
		blk := blocks[rank]
		evs, err := newSliceDecoder(blk.data, nregions, nmetrics, nprocs).decodeAll(blk.nev)
		if err != nil {
			return nil, formatf("rank %d event %d: %v", rank, len(evs), err)
		}
		return evs, nil
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	for rank := range blocks {
		tr.Procs[rank].Events = decoded[rank]
	}

	off := scan.pos
	if len(rest)-off < 4 {
		return nil, formatf("reading end marker: %v", io.ErrUnexpectedEOF)
	}
	if got := string(rest[off : off+4]); got != formatEnd {
		return nil, formatf("end marker %q, want %q", got, formatEnd)
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
