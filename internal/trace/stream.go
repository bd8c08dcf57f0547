package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
)

// ErrStopStream can be returned by a StreamFunc to end the stream early
// without error: Stream returns the header and a nil error.
var ErrStopStream = errors.New("trace: stop streaming")

// Header is the definition part of an archive, delivered to streaming
// consumers before any event.
type Header struct {
	Name    string
	Regions []Region
	Metrics []Metric
	Procs   []Process
}

// StreamFunc receives one event at a time during streaming reads. Events
// arrive rank-major (all of rank 0, then rank 1, ...) in per-rank time
// order. Returning a non-nil error aborts the stream.
type StreamFunc func(rank Rank, ev Event) error

// readHeader parses the PVTR preamble — magic, version, and definitions —
// from br, leaving it positioned at the first rank's event count, and
// returns the definitions with the archive's version (1 or 2). It is
// shared by every PVTR reader: Read, the one-shot Stream reader and the
// resumable per-rank stream reader (OpenRankStreams).
func readHeader(br byteReader) (*Header, uint32, error) {
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
	readByte := func() (byte, error) {
		var b [1]byte
		_, err := io.ReadFull(br, b[:])
		return b[0], err
	}

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, 0, formatf("reading magic: %v", err)
	}
	if string(magic[:]) != formatMagic {
		return nil, 0, formatf("magic %q, want %q", magic[:], formatMagic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, 0, formatf("reading version: %v", err)
	}
	if version != formatVersion && version != pvtrVersion {
		return nil, 0, formatf("version %d, want %d or %d", version, formatVersion, pvtrVersion)
	}

	h := &Header{}
	var err error
	if h.Name, err = readString(); err != nil {
		return nil, 0, formatf("reading name: %v", err)
	}

	nregions, err := readUvarint()
	if err != nil || nregions > maxDefs {
		return nil, 0, formatf("region count: n=%d err=%v", nregions, err)
	}
	for i := uint64(0); i < nregions; i++ {
		name, err := readString()
		if err != nil {
			return nil, 0, formatf("region %d name: %v", i, err)
		}
		pb, err := readByte()
		if err != nil {
			return nil, 0, formatf("region %d paradigm: %v", i, err)
		}
		rb, err := readByte()
		if err != nil {
			return nil, 0, formatf("region %d role: %v", i, err)
		}
		h.Regions = append(h.Regions, Region{ID: RegionID(i), Name: name, Paradigm: Paradigm(pb), Role: RegionRole(rb)})
	}
	nmetrics, err := readUvarint()
	if err != nil || nmetrics > maxDefs {
		return nil, 0, formatf("metric count: n=%d err=%v", nmetrics, err)
	}
	for i := uint64(0); i < nmetrics; i++ {
		name, err := readString()
		if err != nil {
			return nil, 0, formatf("metric %d name: %v", i, err)
		}
		unit, err := readString()
		if err != nil {
			return nil, 0, formatf("metric %d unit: %v", i, err)
		}
		mb, err := readByte()
		if err != nil {
			return nil, 0, formatf("metric %d mode: %v", i, err)
		}
		h.Metrics = append(h.Metrics, Metric{ID: MetricID(i), Name: name, Unit: unit, Mode: MetricMode(mb)})
	}
	nprocs, err := readUvarint()
	if err != nil || nprocs > maxDefs {
		return nil, 0, formatf("proc count: n=%d err=%v", nprocs, err)
	}
	for i := uint64(0); i < nprocs; i++ {
		name, err := readString()
		if err != nil {
			return nil, 0, formatf("proc %d name: %v", i, err)
		}
		h.Procs = append(h.Procs, Process{Rank: Rank(i), Name: name})
	}
	return h, version, nil
}

// Stream decodes a binary PVTR archive from r without materializing the
// event slices: definitions are parsed into a Header, then fn is invoked
// per event. Memory use is O(definitions), independent of trace length —
// the reader for traces that do not fit in RAM. A version-2 archive's
// rank index must name the block starts the stream passed through.
func Stream(r io.Reader, fn StreamFunc) (*Header, error) {
	// One windowed decoder spans the whole archive: the definitions and
	// the inter-block event counts are parsed through the same window
	// as the events.
	buf := windowPool.Get().(*[]byte)
	defer windowPool.Put(buf)
	dec := newStreamDecoder(r, *buf, 0, 0, 0)
	h, version, err := readHeader(dec)
	if err != nil {
		return nil, err
	}
	dec.nregions, dec.nmetrics, dec.nprocs = uint64(len(h.Regions)), uint64(len(h.Metrics)), uint64(len(h.Procs))
	defsEnd := dec.offset()
	dec.rebase() // error offsets count from the first event count
	var starts []int64
	for rank := uint64(0); rank < uint64(len(h.Procs)); rank++ {
		if version == pvtrVersion {
			starts = append(starts, defsEnd+dec.offset())
		}
		nev, err := dec.blockCount()
		if err != nil || nev > maxEvents {
			return nil, formatf("rank %d event count: n=%d err=%v", rank, nev, err)
		}
		var decodeErr error
		err = dec.decodeEach(nev, func(ev Event) error { return fn(Rank(rank), ev) }, func(i uint64, err error) error {
			decodeErr = formatf("rank %d event %d: %v", rank, i, err)
			return decodeErr
		})
		if decodeErr != nil {
			return nil, decodeErr
		}
		if errors.Is(err, ErrStopStream) {
			return h, nil
		}
		if err != nil {
			return h, err
		}
	}
	marker := dec.tail(4)
	if len(marker) < 4 {
		return nil, formatf("reading end marker: %v", io.ErrUnexpectedEOF)
	}
	if string(marker) != formatEnd {
		return nil, formatf("end marker %q, want %q", marker, formatEnd)
	}
	if version == pvtrVersion {
		dec.pos += len(marker)
		if err := checkRankIndex(dec, starts); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// checkRankIndex reads the rank index of a version-2 archive from dec,
// positioned right after the end marker, and checks that it holds
// exactly the block starts (absolute count-varint offsets) the stream
// passed through and that nothing follows it.
func checkRankIndex(dec *eventDecoder, starts []int64) error {
	var entry [8]byte
	for rank, want := range starts {
		if _, err := io.ReadFull(dec, entry[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return formatf("reading rank index entry %d: %v", rank, err)
		}
		if got := binary.LittleEndian.Uint64(entry[:]); got != uint64(want) {
			return formatf("rank index entry %d is byte %d, but rank %d starts at byte %d", rank, got, rank, want)
		}
	}
	if _, err := dec.ReadByte(); err != io.EOF {
		if err != nil {
			return formatf("reading past the rank index: %v", err)
		}
		return formatf("bytes after the rank index")
	}
	return nil
}

// StreamFile streams the archive at path through fn.
func StreamFile(path string, fn StreamFunc) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Stream(f, fn)
}

// ReadHeaderFile reads only the definitions of the archive at path — the
// cheap first step before setting up streaming consumers.
func ReadHeaderFile(path string) (*Header, error) {
	return StreamFile(path, func(Rank, Event) error { return ErrStopStream })
}
