package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Shared event codec used by the single-file (PVTR) and directory (PVTA/
// PVTE) archive formats: one byte of kind, a delta-encoded timestamp, and
// kind-specific varint payloads.

type eventEncoder struct {
	bw      *bufio.Writer
	prev    Time
	scratch [binary.MaxVarintLen64]byte
}

func newEventEncoder(bw *bufio.Writer) *eventEncoder { return &eventEncoder{bw: bw} }

func (e *eventEncoder) putUvarint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.bw.Write(e.scratch[:n])
}

func (e *eventEncoder) putVarint(v int64) {
	n := binary.PutVarint(e.scratch[:], v)
	e.bw.Write(e.scratch[:n])
}

// encode appends one event. Timestamps must be non-decreasing.
func (e *eventEncoder) encode(ev Event) error {
	if ev.Time < e.prev {
		return formatf("unsorted event stream (%d < %d)", ev.Time, e.prev)
	}
	e.bw.WriteByte(byte(ev.Kind))
	e.putUvarint(uint64(ev.Time - e.prev))
	e.prev = ev.Time
	switch ev.Kind {
	case KindEnter, KindLeave:
		e.putUvarint(uint64(ev.Region))
	case KindMetric:
		e.putUvarint(uint64(ev.Metric))
		binary.Write(e.bw, binary.LittleEndian, math.Float64bits(ev.Value))
	case KindSend, KindRecv:
		e.putUvarint(uint64(ev.Peer))
		e.putVarint(int64(ev.Tag))
		e.putUvarint(uint64(ev.Bytes))
	default:
		return formatf("unknown event kind %d", ev.Kind)
	}
	return nil
}

// byteReader is what the definition parser consumes: *bufio.Reader,
// *bytes.Reader and the event decoder itself all satisfy it.
type byteReader interface {
	io.ByteReader
	io.Reader
}

// maxEventEncodedLen bounds the encoded size of one event: one kind byte,
// a 10-byte timestamp varint, and the largest payload (send/recv: three
// varints). The decoder refills its window whenever fewer bytes remain,
// so a whole event can always be decoded from one contiguous slice.
const maxEventEncodedLen = 1 + binary.MaxVarintLen64 + 3*binary.MaxVarintLen64

// eventBatchLen is the length of the runs decodeRuns decodes into before
// handing them to its callback.
const eventBatchLen = 128

var (
	errTruncated      = io.ErrUnexpectedEOF
	errVarintOverflow = errors.New("varint overflows a 64-bit integer")
)

// eventDecoder decodes the event stream from an in-memory window,
// refilling from an optional underlying reader. Two constructions share
// the struct: newSliceDecoder wraps a complete in-memory block (refills
// never happen, decode is zero-copy), and newStreamDecoder couples a
// reusable window buffer to an io.Reader for blocks larger than memory.
// The decoder is also the io.ByteReader/io.Reader the definitions,
// event counts and end marker around the blocks are parsed through, so
// one window serves a whole archive.
//
// Events decode through one run kernel, decodeRun, and framing is
// validated by one skipper, skip. Both keep the window, the position
// and the running timestamp in locals for a whole run, and whenever a
// whole event fits in the window (maxEventEncodedLen bytes) they handle
// the common shapes inline: 1–3-byte varints in decodeRun, an 8-byte
// word scan for varint terminators in skip. Everything else — longer
// varints, out-of-range ids, unknown kinds, truncation, window refills —
// goes to one out-of-line function each (decodeOne, skipOne), which
// handles a single event with every check, so each error text and
// offset has exactly one source. Those errors carry no ErrFormat prefix:
// every caller wraps them in formatf with the rank or frame they belong
// to, so a public error names ErrFormat exactly once.
type eventDecoder struct {
	r       io.Reader // refill source; nil when buf holds the whole block
	buf     []byte
	pos     int
	end     int
	srcEOF  bool
	readErr error // sticky non-EOF refill failure
	base    int64 // offset of buf[0] from the input's start or the rebase point
	t       Time
	// reference bounds for validation
	nregions, nmetrics, nprocs uint64
}

// newSliceDecoder decodes events straight out of data.
func newSliceDecoder(data []byte, nregions, nmetrics, nprocs uint64) *eventDecoder {
	return &eventDecoder{
		buf: data, end: len(data), srcEOF: true,
		nregions: nregions, nmetrics: nmetrics, nprocs: nprocs,
	}
}

// newStreamDecoder decodes events from r through the window buf (which
// must hold at least maxEventEncodedLen bytes; 64 KiB is typical).
func newStreamDecoder(r io.Reader, buf []byte, nregions, nmetrics, nprocs uint64) *eventDecoder {
	return &eventDecoder{
		r: r, buf: buf,
		nregions: nregions, nmetrics: nmetrics, nprocs: nprocs,
	}
}

// offset returns the byte offset of the next undecoded byte, counted
// from the start of the decoder's input (or the rebase point) — the
// location truncation and corruption errors report.
func (d *eventDecoder) offset() int64 { return d.base + int64(d.pos) }

// rebase makes offsets count from the current position, for streams
// whose error offsets are located from the start of their events rather
// than from the start of the file.
func (d *eventDecoder) rebase() { d.base = -int64(d.pos) }

// canRefill reports whether the source may still deliver bytes.
func (d *eventDecoder) canRefill() bool { return !d.srcEOF && d.readErr == nil }

// refill slides the undecoded tail to the front of the window and reads
// until the window is full or the source is exhausted.
func (d *eventDecoder) refill() {
	d.base += int64(d.pos)
	n := copy(d.buf, d.buf[d.pos:d.end])
	d.pos, d.end = 0, n
	for d.end < len(d.buf) && d.canRefill() {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err == io.EOF {
			d.srcEOF = true
		} else if err != nil {
			d.readErr = err
		}
	}
}

// ReadByte reads one byte outside the event blocks.
func (d *eventDecoder) ReadByte() (byte, error) {
	if d.pos == d.end && d.canRefill() {
		d.refill()
	}
	if d.pos == d.end {
		return 0, d.endErr()
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// Read reads bytes outside the event blocks.
func (d *eventDecoder) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if d.pos == d.end && d.canRefill() {
		d.refill()
	}
	if d.pos == d.end {
		return 0, d.endErr()
	}
	n := copy(p, d.buf[d.pos:d.end])
	d.pos += n
	return n, nil
}

// endErr is what ReadByte and Read return once the window is drained.
func (d *eventDecoder) endErr() error {
	if d.readErr != nil {
		return d.readErr
	}
	return io.EOF
}

// fail wraps a decode failure with the field name and byte offset.
func (d *eventDecoder) fail(field string, err error) error {
	if d.readErr != nil {
		err = d.readErr
	}
	return fmt.Errorf("event %s at byte %d: %v", field, d.offset(), err)
}

// uvarint reads one unsigned varint from the window. The caller has
// ensured the window holds a full event or the end of the block, so a
// short parse means a truncated stream, not a short buffer.
func (d *eventDecoder) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:d.end])
	if n <= 0 {
		if n < 0 {
			return 0, d.fail(field, errVarintOverflow)
		}
		return 0, d.fail(field, errTruncated)
	}
	d.pos += n
	return v, nil
}

// blockCount reads an inter-block uvarint (a rank's event count) through
// the decode window and resets the timestamp base for the next block.
// The error is raw (truncation or overflow), for the caller to wrap with
// the rank it was parsing.
func (d *eventDecoder) blockCount() (uint64, error) {
	if d.end-d.pos < maxEventEncodedLen && d.canRefill() {
		d.refill()
	}
	v, n := binary.Uvarint(d.buf[d.pos:d.end])
	if n <= 0 {
		if n < 0 {
			return 0, errVarintOverflow
		}
		if d.readErr != nil {
			return 0, d.readErr
		}
		return 0, errTruncated
	}
	d.pos += n
	d.t = 0
	return v, nil
}

// tail returns up to n trailing bytes (the end marker) from the window.
func (d *eventDecoder) tail(n int) []byte {
	if d.end-d.pos < n && d.canRefill() {
		d.refill()
	}
	if d.end-d.pos < n {
		n = d.end - d.pos
	}
	return d.buf[d.pos : d.pos+n]
}

// knownKind reports whether k is one of the five event kinds.
func knownKind(k EventKind) bool { return k <= KindMetric }

// eventWindow is the view the run kernels take of a window position with
// a whole event's worth of bytes after it: constant offsets into it need
// no bounds checks.
type eventWindow = [maxEventEncodedLen]byte

// uvarint3 decodes the 1–3-byte varint at w[k:] — every timestamp delta,
// id and tag of a typical trace — and returns it with the offset after
// it, or a zero offset for a longer varint, which the run kernel leaves
// to decodeOne. Overlong encodings (0x80 0x00) decode as binary.Uvarint
// decodes them.
func uvarint3(w *eventWindow, k int) (uint64, int) {
	b0 := uint64(w[k])
	if b0 < 0x80 {
		return b0, k + 1
	}
	b1 := uint64(w[k+1])
	if b1 < 0x80 {
		return b0&0x7f | b1<<7, k + 2
	}
	b2 := uint64(w[k+2])
	if b2 < 0x80 {
		return b0&0x7f | (b1&0x7f)<<7 | b2<<14, k + 3
	}
	return 0, 0
}

// set stores every field of e one by one: a composite literal would be
// built on the stack and block-copied, and the wide loads of that copy
// stall on the narrow stores just made.
func (e *Event) set(t Time, kind EventKind, reg RegionID, mid MetricID, v float64, peer Rank, tag int32, nbytes int64) {
	e.Time, e.Kind, e.Region, e.Metric, e.Value, e.Peer, e.Tag, e.Bytes = t, kind, reg, mid, v, peer, tag, nbytes
}

// decodeRun decodes len(dst) events into dst. It returns len(dst), or on
// a failure the index of the failing event and its error, with every
// event before it decoded.
func (d *eventDecoder) decodeRun(dst []Event) (int, error) {
	buf, pos, end, t := d.buf, d.pos, d.end, d.t
	nregions, nmetrics, nprocs := d.nregions, d.nmetrics, d.nprocs
	for i := range dst {
		if end-pos >= maxEventEncodedLen {
			w := (*eventWindow)(buf[pos:])
			if dt, k := uvarint3(w, 1); k != 0 {
				switch kind := EventKind(w[0]); kind {
				case KindEnter, KindLeave:
					if reg, k := uvarint3(w, k); k != 0 && reg < nregions {
						t += Time(dt)
						dst[i].set(t, kind, RegionID(reg), NoMetric, 0, NoRank, 0, 0)
						pos += k
						continue
					}
				case KindMetric:
					if mid, k := uvarint3(w, k); k != 0 && mid < nmetrics {
						t += Time(dt)
						v := math.Float64frombits(binary.LittleEndian.Uint64(w[k:]))
						dst[i].set(t, kind, NoRegion, MetricID(mid), v, NoRank, 0, 0)
						pos += k + 8
						continue
					}
				case KindSend, KindRecv:
					peer, k := uvarint3(w, k)
					if k == 0 || peer >= nprocs {
						break
					}
					utag, k := uvarint3(w, k)
					if k == 0 {
						break
					}
					nbytes, k := uvarint3(w, k)
					if k == 0 {
						break
					}
					tag := int64(utag >> 1) // zigzag, as binary.Varint
					if utag&1 != 0 {
						tag = ^tag
					}
					t += Time(dt)
					dst[i].set(t, kind, NoRegion, NoMetric, 0, Rank(peer), int32(tag), int64(nbytes))
					pos += k
					continue
				}
			}
		}
		d.pos, d.t = pos, t
		if err := d.decodeOne(&dst[i]); err != nil {
			return i, err
		}
		buf, pos, end, t = d.buf, d.pos, d.end, d.t
	}
	d.pos, d.t = pos, t
	return len(dst), nil
}

// decodeOne is decodeRun's out-of-line path: it decodes the one event at
// d.pos with every check, refilling the window first when the source
// has more. On failure d.pos is left where the failing field starts (at
// the kind byte for an unknown kind, which is checked first).
func (d *eventDecoder) decodeOne(ev *Event) error {
	if d.end-d.pos < maxEventEncodedLen && d.canRefill() {
		d.refill()
	}
	if d.pos >= d.end {
		return d.fail("kind", errTruncated)
	}
	kb := d.buf[d.pos]
	if !knownKind(EventKind(kb)) {
		return fmt.Errorf("unknown event kind %d at byte %d", kb, d.offset())
	}
	d.pos++
	dt, err := d.uvarint("time")
	if err != nil {
		return err
	}
	d.t += Time(dt)
	*ev = Event{Time: d.t, Kind: EventKind(kb), Region: NoRegion, Metric: NoMetric, Peer: NoRank}
	switch ev.Kind {
	case KindEnter, KindLeave:
		reg, err := d.uvarint("region")
		if err != nil {
			return err
		}
		if reg >= d.nregions {
			return fmt.Errorf("event region %d out of range at byte %d", reg, d.offset())
		}
		ev.Region = RegionID(reg)
	case KindMetric:
		mid, err := d.uvarint("metric")
		if err != nil {
			return err
		}
		if mid >= d.nmetrics {
			return fmt.Errorf("event metric %d out of range at byte %d", mid, d.offset())
		}
		ev.Metric = MetricID(mid)
		if d.end-d.pos < 8 {
			return d.fail("value", errTruncated)
		}
		ev.Value = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
		d.pos += 8
	case KindSend, KindRecv:
		peer, err := d.uvarint("peer")
		if err != nil {
			return err
		}
		if peer >= d.nprocs {
			return fmt.Errorf("event peer %d out of range at byte %d", peer, d.offset())
		}
		ev.Peer = Rank(peer)
		tag, n := binary.Varint(d.buf[d.pos:d.end])
		if n <= 0 {
			if n < 0 {
				return d.fail("tag", errVarintOverflow)
			}
			return d.fail("tag", errTruncated)
		}
		d.pos += n
		ev.Tag = int32(tag)
		nbytes, err := d.uvarint("bytes")
		if err != nil {
			return err
		}
		ev.Bytes = int64(nbytes)
	}
	return nil
}

// runPool recycles the event runs decodeRuns decodes into. A run is
// handed to a callback, so it cannot live on the decoder's stack: it
// would escape to the heap on every stream.
var runPool = sync.Pool{New: func() any { return new([eventBatchLen]Event) }}

// decodeRuns decodes n events and hands them to fn in stream order, a
// run of up to eventBatchLen at a time, decoded into a pooled buffer:
// the run is valid only during the call. An error from fn is returned
// unchanged and ends the stream; a decode failure is returned through
// at, which receives the index of the failing event after every event
// before it has reached fn. It is the one decode loop behind every
// stream reader.
func (d *eventDecoder) decodeRuns(n uint64, fn func([]Event) error, at func(i uint64, err error) error) error {
	run := runPool.Get().(*[eventBatchLen]Event)
	defer runPool.Put(run)
	for i := uint64(0); i < n; {
		k, err := d.decodeRun(run[:min(n-i, eventBatchLen)])
		if k > 0 {
			if err := fn(run[:k]); err != nil {
				return err
			}
		}
		i += uint64(k)
		if err != nil {
			return at(i, err)
		}
	}
	return nil
}

// decodeEach is decodeRuns for a per-event fn.
func (d *eventDecoder) decodeEach(n uint64, fn func(Event) error, at func(i uint64, err error) error) error {
	return d.decodeRuns(n, eachEvent(fn), at)
}

// eachEvent adapts a per-event callback to a run callback: it feeds the
// run's events to fn in order and stops at fn's first error.
func eachEvent(fn func(Event) error) func([]Event) error {
	return func(run []Event) error {
		for _, ev := range run {
			if err := fn(ev); err != nil {
				return err
			}
		}
		return nil
	}
}

// decodeAll decodes n events into a new slice, allocated once when the
// decoder knows how many bytes its events can span: n events, or as many
// as those bytes can encode when a corrupt count claims more, so a count
// proven by the framing scan or bounded by a rank-index entry or a
// file's size costs exactly its events. A decoder that holds its whole
// block knows its length; a streaming decoder is told a bound through
// size (a file's size, say), or is passed a negative size and starts at
// no more than 64 Ki events and grows as append would. On failure the
// slice holds the events before the failing one.
func (d *eventDecoder) decodeAll(n uint64, size int64) ([]Event, error) {
	if d.r == nil {
		size = int64(d.end - d.pos)
	}
	capacity := min(n, 1<<16)
	if size >= 0 {
		capacity = min(n, uint64(size)/minEventEncodedLen)
	}
	evs := make([]Event, 0, capacity)
	for uint64(len(evs)) < n {
		if len(evs) == cap(evs) {
			evs = slices.Grow(evs, 1)
		}
		run := evs[len(evs):min(uint64(cap(evs)), n)]
		k, err := d.decodeRun(run)
		evs = evs[:len(evs)+k]
		if err != nil {
			return evs, err
		}
	}
	return evs, nil
}

// varintStops masks the terminator bytes (top bit clear) of the varints
// in an 8-byte little-endian word, one bit per terminator.
const varintStops = 0x8080808080808080

// skip advances past n events, validating only their framing — known
// kinds, intact varints, full fixed-width values; range checks on the
// decoded values stay in decodeRun. The events are self-delimiting, so
// this cheap pass is what locates the rank blocks of a version-1
// archive, which has no rank index, for parallel decode and per-rank
// streaming; on a version-2 archive it runs only to word a broken
// index as a version-1 reader would word the framing fault. Errors
// name the event and its byte offset from where the skip started.
func (d *eventDecoder) skip(n uint64) error {
	start := d.offset()
	buf, pos, end := d.buf, d.pos, d.end
	for i := uint64(0); i < n; i++ {
		if end-pos >= maxEventEncodedLen {
			// One load covers the varints after the kind byte of any
			// event whose varints fit in 8 bytes: the k-th terminator
			// ends the k-th varint.
			w := (*eventWindow)(buf[pos:])
			stops := ^binary.LittleEndian.Uint64(w[1:]) & varintStops
			switch EventKind(w[0]) {
			case KindEnter, KindLeave: // time, region
				if stops &= stops - 1; stops != 0 {
					pos += 2 + bits.TrailingZeros64(stops)/8
					continue
				}
			case KindMetric: // time, metric, 8-byte value
				if stops &= stops - 1; stops != 0 {
					pos += 2 + bits.TrailingZeros64(stops)/8 + 8
					continue
				}
			case KindSend, KindRecv: // time, peer, tag, bytes
				stops &= stops - 1
				stops &= stops - 1
				if stops &= stops - 1; stops != 0 {
					pos += 2 + bits.TrailingZeros64(stops)/8
					continue
				}
			}
		}
		d.pos = pos
		if err := d.skipOne(i, start); err != nil {
			return err
		}
		buf, pos, end = d.buf, d.pos, d.end
	}
	d.pos = pos
	return nil
}

// skipOne is skip's out-of-line path: it skips the one event at d.pos
// with every framing check, refilling the window first when the source
// has more.
func (d *eventDecoder) skipOne(i uint64, start int64) error {
	if d.end-d.pos < maxEventEncodedLen && d.canRefill() {
		d.refill()
	}
	if d.pos >= d.end {
		return fmt.Errorf("event %d at byte %d: truncated", i, d.offset()-start)
	}
	kind := EventKind(d.buf[d.pos])
	if !knownKind(kind) {
		return fmt.Errorf("event %d at byte %d: unknown event kind %d", i, d.offset()-start, kind)
	}
	d.pos++
	// Signed and unsigned varints share the base-128 framing, so one
	// skipper covers both.
	skipVarints := func(k int, what string) error {
		for ; k > 0; k-- {
			_, n := binary.Uvarint(d.buf[d.pos:d.end])
			if n <= 0 {
				return fmt.Errorf("event %d at byte %d: truncated %s", i, d.offset()-start, what)
			}
			d.pos += n
		}
		return nil
	}
	if err := skipVarints(1, "time"); err != nil {
		return err
	}
	switch kind {
	case KindEnter, KindLeave:
		return skipVarints(1, "region")
	case KindMetric:
		if err := skipVarints(1, "metric"); err != nil {
			return err
		}
		if d.end-d.pos < 8 {
			return fmt.Errorf("event %d at byte %d: truncated value", i, d.offset()-start)
		}
		d.pos += 8
		return nil
	default: // KindSend, KindRecv
		return skipVarints(3, "message")
	}
}
