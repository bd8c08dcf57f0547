package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"perfvar/internal/parallel"
)

// Directory archive format: the multi-file sibling of the single-file
// PVTR archive, mirroring how Score-P/OTF2 lay out measurements so every
// rank can write its own stream without coordination:
//
//	<dir>/anchor.pvta        magic "PVTA" | version | name | defs | #procs
//	<dir>/rank-<N>.pvte      magic "PVTE" | rank | uvarint #events | events
//
// The anchor holds the global definitions; rank files are self-delimiting
// event streams using the shared codec. RankWriter allows incremental
// (measurement-time) writing of a rank file.

const (
	anchorMagic = "PVTA"
	rankMagic   = "PVTE"
	anchorName  = "anchor.pvta"
)

func rankFileName(rank int) string { return fmt.Sprintf("rank-%d.pvte", rank) }

// WriteDir writes tr as a directory archive at dir (created if needed).
func WriteDir(dir string, tr *Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeAnchor(filepath.Join(dir, anchorName), tr); err != nil {
		return err
	}
	for rank := range tr.Procs {
		w, err := NewRankWriter(dir, rank)
		if err != nil {
			return err
		}
		for _, ev := range tr.Procs[rank].Events {
			if err := w.Write(ev); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// WriteAnchor writes dir's anchor file (created if needed) from h's
// definitions — the measurement-time sibling of WriteDir for archives
// built incrementally through RankWriter, whose events do not exist yet
// when the definitions are known.
func WriteAnchor(dir string, h *Header) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr := New(h.Name, len(h.Procs))
	tr.Regions = h.Regions
	tr.Metrics = h.Metrics
	for i := range h.Procs {
		tr.Procs[i].Proc = h.Procs[i]
	}
	return writeAnchor(filepath.Join(dir, anchorName), tr)
}

func writeAnchor(path string, tr *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := newEventEncoder(bw)
	bw.WriteString(anchorMagic)
	binary.Write(bw, binary.LittleEndian, uint32(formatVersion))
	putStr := func(s string) {
		enc.putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	putStr(tr.Name)
	enc.putUvarint(uint64(len(tr.Regions)))
	for _, r := range tr.Regions {
		putStr(r.Name)
		bw.WriteByte(byte(r.Paradigm))
		bw.WriteByte(byte(r.Role))
	}
	enc.putUvarint(uint64(len(tr.Metrics)))
	for _, m := range tr.Metrics {
		putStr(m.Name)
		putStr(m.Unit)
		bw.WriteByte(byte(m.Mode))
	}
	enc.putUvarint(uint64(len(tr.Procs)))
	for i := range tr.Procs {
		putStr(tr.Procs[i].Proc.Name)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readAnchor parses the anchor file into an empty trace (definitions and
// process table, no events).
func readAnchor(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, formatf("anchor magic: %v", err)
	}
	if string(magic[:]) != anchorMagic {
		return nil, formatf("anchor magic %q, want %q", magic[:], anchorMagic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, formatf("anchor version: %v", err)
	}
	if version != formatVersion {
		return nil, formatf("anchor version %d, want %d", version, formatVersion)
	}
	readStr := func() (string, error) {
		n, err := binary.ReadUvarint(br)
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
	name, err := readStr()
	if err != nil {
		return nil, formatf("anchor name: %v", err)
	}
	nregions, err := binary.ReadUvarint(br)
	if err != nil || nregions > maxDefs {
		return nil, formatf("anchor region count: n=%d err=%v", nregions, err)
	}
	tmp := &Trace{Name: name}
	for i := uint64(0); i < nregions; i++ {
		rname, err := readStr()
		if err != nil {
			return nil, formatf("anchor region %d: %v", i, err)
		}
		pb, err1 := br.ReadByte()
		rb, err2 := br.ReadByte()
		if err1 != nil || err2 != nil {
			return nil, formatf("anchor region %d attrs", i)
		}
		tmp.Regions = append(tmp.Regions, Region{ID: RegionID(i), Name: rname, Paradigm: Paradigm(pb), Role: RegionRole(rb)})
	}
	nmetrics, err := binary.ReadUvarint(br)
	if err != nil || nmetrics > maxDefs {
		return nil, formatf("anchor metric count: n=%d err=%v", nmetrics, err)
	}
	for i := uint64(0); i < nmetrics; i++ {
		mname, err := readStr()
		if err != nil {
			return nil, formatf("anchor metric %d: %v", i, err)
		}
		unit, err := readStr()
		if err != nil {
			return nil, formatf("anchor metric %d unit: %v", i, err)
		}
		mb, err := br.ReadByte()
		if err != nil {
			return nil, formatf("anchor metric %d mode: %v", i, err)
		}
		tmp.Metrics = append(tmp.Metrics, Metric{ID: MetricID(i), Name: mname, Unit: unit, Mode: MetricMode(mb)})
	}
	nprocs, err := binary.ReadUvarint(br)
	if err != nil || nprocs > maxDefs {
		return nil, formatf("anchor proc count: n=%d err=%v", nprocs, err)
	}
	out := New(name, int(nprocs))
	out.Regions = tmp.Regions
	out.Metrics = tmp.Metrics
	for i := 0; i < int(nprocs); i++ {
		pname, err := readStr()
		if err != nil {
			return nil, formatf("anchor proc %d: %v", i, err)
		}
		out.Procs[i].Proc.Name = pname
	}
	return out, nil
}

// ReadDir reads a directory archive. Missing rank files yield empty
// streams (a rank that recorded nothing), corrupt ones an error. Rank
// files are independently decodable, so they are read in parallel; on
// failure the error of the lowest failing rank is reported, as a serial
// loop would.
func ReadDir(dir string) (*Trace, error) {
	tr, err := readAnchor(filepath.Join(dir, anchorName))
	if err != nil {
		return nil, err
	}
	perRank, err := parallel.Map(len(tr.Procs), func(rank int) ([]Event, error) {
		evs, err := readRankFile(filepath.Join(dir, rankFileName(rank)), rank, tr)
		if os.IsNotExist(err) {
			return nil, nil
		}
		return evs, err
	})
	if err != nil {
		return nil, err
	}
	for rank := range tr.Procs {
		if perRank[rank] != nil {
			tr.Procs[rank].Events = perRank[rank]
		}
	}
	return tr, nil
}

func readRankFile(path string, rank int, tr *Trace) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := windowPool.Get().(*[]byte)
	defer windowPool.Put(buf)
	dec, nev, err := openRankFile(f, *buf, path, rank, uint64(len(tr.Regions)), uint64(len(tr.Metrics)), uint64(len(tr.Procs)))
	if err != nil {
		return nil, err
	}
	// The file's size bounds its events, so the slice is allocated once.
	evs, err := dec.decodeAll(nev, fi.Size())
	if err != nil {
		return nil, formatf("%s: event %d: %v", path, len(evs), err)
	}
	return evs, nil
}

// openRankFile reads the preamble of rank's event file f (magic, rank,
// event count) through a decoder over the window buf, and returns the
// decoder positioned at the first event, validating ids against the
// given definition counts.
func openRankFile(f io.Reader, buf []byte, path string, rank int, nregions, nmetrics, nprocs uint64) (*eventDecoder, uint64, error) {
	dec := newStreamDecoder(f, buf, nregions, nmetrics, nprocs)
	var magic [4]byte
	if _, err := io.ReadFull(dec, magic[:]); err != nil {
		return nil, 0, formatf("%s: magic: %v", path, err)
	}
	if string(magic[:]) != rankMagic {
		return nil, 0, formatf("%s: magic %q, want %q", path, magic[:], rankMagic)
	}
	fileRank, err := binary.ReadUvarint(dec)
	if err != nil || int(fileRank) != rank {
		return nil, 0, formatf("%s: rank %d, want %d (err=%v)", path, fileRank, rank, err)
	}
	var nev uint64
	if err := binary.Read(dec, binary.LittleEndian, &nev); err != nil {
		return nil, 0, formatf("%s: event count: %v", path, err)
	}
	if nev > maxEvents {
		return nil, 0, formatf("%s: event count %d exceeds limit", path, nev)
	}
	dec.rebase() // error offsets count from the first event
	return dec, nev, nil
}

// RankWriter incrementally writes one rank's event file — the
// measurement-time API: each process appends its own events with no
// global coordination. The event count is back-patched on Close.
type RankWriter struct {
	f     *os.File
	bw    *bufio.Writer
	enc   *eventEncoder
	count uint64
	path  string
	rank  int
}

// NewRankWriter creates (or truncates) dir/rank-<rank>.pvte.
func NewRankWriter(dir string, rank int) (*RankWriter, error) {
	path := filepath.Join(dir, rankFileName(rank))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &RankWriter{f: f, path: path, rank: rank}
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.enc = newEventEncoder(w.bw)
	w.bw.WriteString(rankMagic)
	w.enc.putUvarint(uint64(rank))
	// Placeholder for the event count: fixed 8-byte slot so it can be
	// patched without rewriting (encoded as fixed64, not varint).
	binary.Write(w.bw, binary.LittleEndian, uint64(0))
	return w, nil
}

// Write appends one event (timestamps must be non-decreasing).
func (w *RankWriter) Write(ev Event) error {
	if err := w.enc.encode(ev); err != nil {
		return err
	}
	w.count++
	return nil
}

// Close flushes the stream and patches the event count.
func (w *RankWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	// Patch the count slot: after magic (4 bytes) + rank uvarint.
	var rankBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(rankBuf[:], uint64(w.rank))
	var countBuf [8]byte
	binary.LittleEndian.PutUint64(countBuf[:], w.count)
	if _, err := w.f.WriteAt(countBuf[:], int64(4+n)); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
