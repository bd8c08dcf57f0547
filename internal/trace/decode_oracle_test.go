package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
)

// The run kernel (decodeRun/decodeOne) and the framing skipper
// (skip/skipOne) against the per-event decoder and the two framing
// scanners they replaced, kept here verbatim as test-only references.
// The one intended difference is where an unknown kind is reported: the
// references read the time varint first and locate the error past it
// (or report the time varint instead when it is broken), the kernels
// check the kind first and report the kind byte's offset. referenceRun
// and referenceSkip apply that change to the references' results, on
// exactly those inputs.

// referenceDecode reads one event.
func (d *eventDecoder) referenceDecode() (Event, error) {
	if d.end-d.pos < maxEventEncodedLen && !d.srcEOF && d.readErr == nil {
		d.refill()
	}
	if d.pos >= d.end {
		return Event{}, d.fail("kind", errTruncated)
	}
	kb := d.buf[d.pos]
	d.pos++
	dt, err := d.uvarint("time")
	if err != nil {
		return Event{}, err
	}
	d.t += Time(dt)
	ev := Event{Time: d.t, Kind: EventKind(kb), Region: NoRegion, Metric: NoMetric, Peer: NoRank}
	switch ev.Kind {
	case KindEnter, KindLeave:
		reg, err := d.uvarint("region")
		if err != nil {
			return Event{}, err
		}
		if reg >= d.nregions {
			return Event{}, fmt.Errorf("event region %d out of range at byte %d", reg, d.offset())
		}
		ev.Region = RegionID(reg)
	case KindMetric:
		mid, err := d.uvarint("metric")
		if err != nil {
			return Event{}, err
		}
		if mid >= d.nmetrics {
			return Event{}, fmt.Errorf("event metric %d out of range at byte %d", mid, d.offset())
		}
		ev.Metric = MetricID(mid)
		if d.end-d.pos < 8 {
			return Event{}, d.fail("value", errTruncated)
		}
		ev.Value = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
		d.pos += 8
	case KindSend, KindRecv:
		peer, err := d.uvarint("peer")
		if err != nil {
			return Event{}, err
		}
		if peer >= d.nprocs {
			return Event{}, fmt.Errorf("event peer %d out of range at byte %d", peer, d.offset())
		}
		ev.Peer = Rank(peer)
		tag, n := binary.Varint(d.buf[d.pos:d.end])
		if n <= 0 {
			if n < 0 {
				return Event{}, d.fail("tag", errVarintOverflow)
			}
			return Event{}, d.fail("tag", errTruncated)
		}
		d.pos += n
		ev.Tag = int32(tag)
		nbytes, err := d.uvarint("bytes")
		if err != nil {
			return Event{}, err
		}
		ev.Bytes = int64(nbytes)
	default:
		return Event{}, fmt.Errorf("unknown event kind %d at byte %d", kb, d.offset())
	}
	return ev, nil
}

// referenceSkipEvents scans n encoded events at the start of data without decoding
// their payloads and returns the byte length of the block. The events are
// self-delimiting but the archive carries no index, so this cheap framing
// pass is what lets rank blocks be located up front and decoded in
// parallel. Only framing is validated (known kinds, intact varints, full
// fixed-width values); range checks on the decoded values stay in decode.
func referenceSkipEvents(data []byte, n uint64) (int, error) {
	off := 0
	skipVarint := func() bool {
		// Signed and unsigned varints share the base-128 framing, so one
		// skipper covers both.
		_, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return false
		}
		off += sz
		return true
	}
	for i := uint64(0); i < n; i++ {
		if off >= len(data) {
			return 0, fmt.Errorf("event %d at byte %d: truncated", i, off)
		}
		kind := EventKind(data[off])
		off++
		if !skipVarint() { // delta timestamp
			return 0, fmt.Errorf("event %d at byte %d: truncated time", i, off)
		}
		switch kind {
		case KindEnter, KindLeave:
			if !skipVarint() {
				return 0, fmt.Errorf("event %d at byte %d: truncated region", i, off)
			}
		case KindMetric:
			if !skipVarint() {
				return 0, fmt.Errorf("event %d at byte %d: truncated metric", i, off)
			}
			if off+8 > len(data) {
				return 0, fmt.Errorf("event %d at byte %d: truncated value", i, off)
			}
			off += 8
		case KindSend, KindRecv:
			if !skipVarint() || !skipVarint() || !skipVarint() {
				return 0, fmt.Errorf("event %d at byte %d: truncated message", i, off)
			}
		default:
			return 0, fmt.Errorf("event %d at byte %d: unknown event kind %d", i, off-1, kind)
		}
	}
	return off, nil
}

// referenceSkipEventsReader advances br past n encoded events, validating only the
// framing — the streaming sibling of skipEvents.
func referenceSkipEventsReader(br byteReader, n uint64) error {
	var fixed [8]byte
	for i := uint64(0); i < n; i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("event %d: truncated", i)
		}
		if _, err := binary.ReadUvarint(br); err != nil { // delta timestamp
			return fmt.Errorf("event %d: truncated time", i)
		}
		switch EventKind(kb) {
		case KindEnter, KindLeave:
			if _, err := binary.ReadUvarint(br); err != nil {
				return fmt.Errorf("event %d: truncated region", i)
			}
		case KindMetric:
			if _, err := binary.ReadUvarint(br); err != nil {
				return fmt.Errorf("event %d: truncated metric", i)
			}
			if _, err := io.ReadFull(br, fixed[:]); err != nil {
				return fmt.Errorf("event %d: truncated value", i)
			}
		case KindSend, KindRecv:
			if _, err := binary.ReadUvarint(br); err != nil {
				return fmt.Errorf("event %d: truncated message", i)
			}
			if _, err := binary.ReadVarint(br); err != nil {
				return fmt.Errorf("event %d: truncated message", i)
			}
			if _, err := binary.ReadUvarint(br); err != nil {
				return fmt.Errorf("event %d: truncated message", i)
			}
		default:
			return fmt.Errorf("event %d: unknown event kind %d", i, kb)
		}
	}
	return nil
}

// decodeCase is one generated event block: n declared events in data,
// validated against the given definition counts.
type decodeCase struct {
	data                       []byte
	n                          uint64
	nregions, nmetrics, nprocs uint64
}

// decodeResult is what a decode loop observed: the events it delivered,
// its error text, and the decoder's offset when it stopped.
type decodeResult struct {
	events []Event
	err    string
	offset int64
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// referenceRun decodes c through referenceDecode, one event at a time, on
// dec, applying the unknown-kind location fix. It also returns the index
// of the failing event (c.n when none failed).
func referenceRun(c decodeCase, dec *eventDecoder) (decodeResult, uint64) {
	var res decodeResult
	for i := uint64(0); i < c.n; i++ {
		start := dec.offset()
		ev, err := dec.referenceDecode()
		if err != nil {
			// referenceDecode refills only before its first read, so the
			// failing event's kind byte is still in the window.
			if s := int(start - dec.base); s < dec.end && !knownKind(EventKind(dec.buf[s])) {
				err = fmt.Errorf("unknown event kind %d at byte %d", dec.buf[s], start)
				dec.pos = s
			}
			res.err, res.offset = err.Error(), dec.offset()
			return res, i
		}
		res.events = append(res.events, ev)
	}
	res.offset = dec.offset()
	return res, c.n
}

// referenceSkip is the framing reference for c.data with the
// unknown-kind location fix: the consumed byte count, or the error text.
func referenceSkip(data []byte, n uint64) (int, string) {
	off, err := referenceSkipEvents(data, n)
	if err == nil {
		return off, ""
	}
	// Locate the failing event: the longest prefix that still frames.
	lo, hi := uint64(0), n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if _, err := referenceSkipEvents(data, mid); err == nil {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	start, _ := referenceSkipEvents(data, lo)
	if start < len(data) && !knownKind(EventKind(data[start])) {
		err = fmt.Errorf("event %d at byte %d: unknown event kind %d", lo, start, data[start])
	}
	return 0, err.Error()
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Time != y.Time || x.Kind != y.Kind || x.Region != y.Region || x.Metric != y.Metric ||
			math.Float64bits(x.Value) != math.Float64bits(y.Value) || x.Peer != y.Peer || x.Tag != y.Tag || x.Bytes != y.Bytes {
			return false
		}
	}
	return true
}

func checkResult(t *testing.T, what string, got, want decodeResult) {
	t.Helper()
	if got.err != want.err || got.offset != want.offset || !sameEvents(got.events, want.events) {
		t.Fatalf("%s:\n got  %d events, offset %d, err %q\n want %d events, offset %d, err %q",
			what, len(got.events), got.offset, got.err, len(want.events), want.offset, want.err)
	}
}

// appendVarintLen appends v as a varint of exactly n bytes, padding with
// overlong continuation bytes; v must fit in 7n bits (n = 10 allows 64).
func appendVarintLen(b []byte, v uint64, n int) []byte {
	for i := 0; i < n-1; i++ {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// eventGen emits random event streams: all five kinds, varints of every
// length from 1 to 10 bytes (overlong encodings included), ids at and
// past the definition counts, and, when corrupt, unknown kinds and
// overflowing varints.
type eventGen struct {
	rng     *rand.Rand
	corrupt bool
}

// varint appends v in its shortest encoding mostly, in an overlong one
// of up to 10 bytes sometimes, and, when corrupt, rarely an overflowing
// varint in its place.
func (g *eventGen) varint(b []byte, v uint64) []byte {
	if g.corrupt && g.rng.Intn(200) == 0 {
		if g.rng.Intn(2) == 0 {
			return append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02) // 10th byte > 1
		}
		return append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00) // 11 bytes
	}
	n := 1
	for x := v >> 7; x != 0; x >>= 7 {
		n++
	}
	if g.rng.Intn(4) == 0 {
		n += g.rng.Intn(11 - n) // overlong, up to 10 bytes
	}
	return appendVarintLen(b, v, n)
}

// value draws a varint payload: short mostly, any 64-bit value sometimes.
func (g *eventGen) value() uint64 {
	switch g.rng.Intn(8) {
	case 0:
		return g.rng.Uint64() >> uint(g.rng.Intn(64))
	case 1:
		return uint64(g.rng.Intn(1 << 21))
	default:
		return uint64(g.rng.Intn(300))
	}
}

// id draws a definition reference, occasionally at or past the bound.
func (g *eventGen) id(bound uint64) uint64 {
	switch g.rng.Intn(60) {
	case 0:
		return bound
	case 1:
		return bound + uint64(g.rng.Intn(1000))
	}
	if bound == 0 {
		return 0
	}
	return uint64(g.rng.Int63n(int64(bound)))
}

func (g *eventGen) event(b []byte, c *decodeCase) []byte {
	kind := EventKind(g.rng.Intn(5))
	if g.rng.Intn(3) != 0 {
		kind = EventKind(g.rng.Intn(2)) // Enter/Leave dominate real traces
	}
	if g.corrupt && g.rng.Intn(150) == 0 {
		kind = EventKind(5 + g.rng.Intn(251))
	}
	b = append(b, byte(kind))
	b = g.varint(b, g.value())
	switch kind {
	case KindEnter, KindLeave:
		b = g.varint(b, g.id(c.nregions))
	case KindMetric:
		b = g.varint(b, g.id(c.nmetrics))
		b = binary.LittleEndian.AppendUint64(b, g.rng.Uint64())
	case KindSend, KindRecv:
		b = g.varint(b, g.id(c.nprocs))
		b = g.varint(b, g.value())
		b = g.varint(b, g.value())
	default:
		b = g.varint(b, g.value())
	}
	return b
}

// genCase generates a block of nev events; the declared count is nev,
// occasionally one more (the block runs short).
func genCase(rng *rand.Rand, nev int, corrupt bool) decodeCase {
	c := decodeCase{
		nregions: uint64(1 + rng.Intn(200)),
		nmetrics: uint64(rng.Intn(4)),
		nprocs:   uint64(1 + rng.Intn(300)),
	}
	g := &eventGen{rng: rng, corrupt: corrupt}
	for i := 0; i < nev; i++ {
		c.data = g.event(c.data, &c)
	}
	c.n = uint64(nev)
	if rng.Intn(10) == 0 {
		c.n++
	}
	return c
}

// errAfterReader fails with errBroken once n bytes have been read.
type errAfterReader struct {
	r io.Reader
	n int
}

var errBroken = errors.New("device broken")

func (e *errAfterReader) Read(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errBroken
	}
	if len(p) > e.n {
		p = p[:e.n]
	}
	n, err := e.r.Read(p)
	e.n -= n
	return n, err
}

// decoderConfigs returns the decoders a kernel check runs over c: the
// slice decoder, and stream decoders with windows from the minimum up
// to the 64 KiB pool size over whole, one-byte, half and failing reads.
func decoderConfigs(c decodeCase, rng *rand.Rand) []struct {
	name string
	make func() *eventDecoder
} {
	type cfg = struct {
		name string
		make func() *eventDecoder
	}
	out := []cfg{{"slice", func() *eventDecoder {
		return newSliceDecoder(c.data, c.nregions, c.nmetrics, c.nprocs)
	}}}
	fail := rng.Intn(len(c.data) + 1)
	windows := []int{maxEventEncodedLen, maxEventEncodedLen + 7, 100, 4096}
	if len(c.data) > 4096 {
		windows = append(windows, 1<<16)
	}
	for _, w := range windows {
		w := w
		for _, r := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"onebyte", iotest.OneByteReader},
			{"half", iotest.HalfReader},
			{fmt.Sprintf("fail@%d", fail), func(r io.Reader) io.Reader { return &errAfterReader{r: r, n: fail} }},
		} {
			r := r
			out = append(out, cfg{fmt.Sprintf("window %d %s", w, r.name), func() *eventDecoder {
				return newStreamDecoder(r.wrap(bytes.NewReader(c.data)), make([]byte, w), c.nregions, c.nmetrics, c.nprocs)
			}})
		}
	}
	return out
}

// checkKernels compares decodeEach, decodeAll and skip on every decoder
// configuration with the references on the same configuration.
func checkKernels(t *testing.T, c decodeCase, rng *rand.Rand) {
	t.Helper()
	for _, cfg := range decoderConfigs(c, rng) {
		want, _ := referenceRun(c, cfg.make())

		dec := cfg.make()
		var got decodeResult
		err := dec.decodeEach(c.n, func(ev Event) error {
			got.events = append(got.events, ev)
			return nil
		}, func(i uint64, err error) error {
			if i != uint64(len(got.events)) {
				t.Fatalf("%s: decodeEach reports event %d after delivering %d", cfg.name, i, len(got.events))
			}
			return err
		})
		got.err, got.offset = errText(err), dec.offset()
		checkResult(t, cfg.name+": decodeEach", got, want)

		dec = cfg.make()
		evs, err := dec.decodeAll(c.n, -1)
		checkResult(t, cfg.name+": decodeAll", decodeResult{evs, errText(err), dec.offset()}, want)

		// The framing kernel: the slice reference where the reads are
		// whole, the failing reader wherever it broke off before the end.
		dec = cfg.make()
		err = dec.skip(c.n)
		wantOff, wantErr := referenceSkip(c.data, c.n)
		if dec.readErr != nil && errText(err) != wantErr {
			// A broken source truncates the block where it failed.
			wantOff, wantErr = referenceSkip(c.data[:dec.base+int64(dec.end)], c.n)
		}
		if errText(err) != wantErr || (err == nil && dec.offset() != int64(wantOff)) {
			t.Fatalf("%s: skip = %d, %q; want %d, %q", cfg.name, dec.offset(), errText(err), wantOff, wantErr)
		}
	}
	// The byte-at-a-time framing scanner agrees on what frames.
	_, wantErr := referenceSkip(c.data, c.n)
	br := bytes.NewReader(c.data)
	if err := referenceSkipEventsReader(br, c.n); (err == nil) != (wantErr == "") {
		t.Fatalf("reader scanner err %v, slice scanner err %q", err, wantErr)
	} else if err == nil {
		if off, _ := referenceSkip(c.data, c.n); int64(len(c.data))-int64(br.Len()) != int64(off) {
			t.Fatalf("reader scanner consumed %d bytes, slice scanner %d", int64(len(c.data))-int64(br.Len()), off)
		}
	}
}

func TestDecodeKernelsMatchReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genCase(rng, 1+rng.Intn(400), seed%2 == 0)
		checkKernels(t, c, rng)
	}
}

// Truncation at every byte of a block, on every decoder configuration.
func TestDecodeKernelsTruncatedAtEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := genCase(rng, 60, false)
	for cut := 0; cut <= len(c.data); cut++ {
		tc := c
		tc.data = c.data[:cut]
		checkKernels(t, tc, rng)
	}
}

// archiveHeader encodes the definitions of an archive with c's counts.
func archiveHeader(t *testing.T, c decodeCase) (*Header, []byte) {
	t.Helper()
	h := &Header{Name: "oracle"}
	for i := uint64(0); i < c.nregions; i++ {
		h.Regions = append(h.Regions, Region{ID: RegionID(i), Name: fmt.Sprint("r", i)})
	}
	for i := uint64(0); i < c.nmetrics; i++ {
		h.Metrics = append(h.Metrics, Metric{ID: MetricID(i), Name: fmt.Sprint("m", i)})
	}
	for i := uint64(0); i < c.nprocs; i++ {
		h.Procs = append(h.Procs, Process{Rank: Rank(i), Name: fmt.Sprint("p", i)})
	}
	var buf bytes.Buffer
	if err := WriteFrom(&buf, h, make([]uint64, c.nprocs), func(int, func(Event) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// A version-1 archive, without the zero event counts and the end
	// marker: the entry loops below append the blocks and the marker.
	v1 := pvtrV1(t, buf.Bytes())
	return h, v1[:len(v1)-int(c.nprocs)-len(formatEnd)]
}

// checkEntryLoops runs c's block as the last rank of an archive (the
// other ranks are empty) through every decode loop and framing scan of
// the package, and checks each against the references with the loop's
// own error wrapping.
func checkEntryLoops(t *testing.T, c decodeCase, dir bool) {
	t.Helper()
	h, hdr := archiveHeader(t, c)
	rank := int(c.nprocs) - 1
	archive := append([]byte(nil), hdr...)
	for r := 0; r < rank; r++ {
		archive = append(archive, 0)
	}
	archive = binary.AppendUvarint(archive, c.n)
	blockOff := int64(len(archive))
	archive = append(archive, c.data...)
	archive = append(archive, formatEnd...)
	run := func(data []byte, pos int) (decodeResult, uint64) {
		dec := newSliceDecoder(data, c.nregions, c.nmetrics, c.nprocs)
		dec.pos = pos
		return referenceRun(c, dec)
	}
	collect := func(res *decodeResult) func(Event) error {
		return func(ev Event) error { res.events = append(res.events, ev); return nil }
	}
	// wrap is a reference result with its error text wrapped as a decode
	// loop wraps it, the failing event's index last but one.
	wrap := func(res decodeResult, failed uint64, format string, args ...any) decodeResult {
		if res.err != "" {
			res.err = formatf(format, append(args, failed, res.err)...).Error()
		}
		res.offset = 0
		return res
	}
	// marker is the end-marker check after the event blocks, located as
	// the Open paths locate it when at is set.
	marker := func(end int64, at bool) string {
		switch rest := archive[end:]; {
		case len(rest) < 4 && at:
			return formatf("reading end marker at byte %d: %v", end, io.ErrUnexpectedEOF).Error()
		case len(rest) < 4:
			return formatf("reading end marker: %v", io.ErrUnexpectedEOF).Error()
		case string(rest[:4]) != formatEnd:
			return formatf("end marker %q, want %q", rest[:4], formatEnd).Error()
		}
		return ""
	}

	// The block on its own, as a span, a rank file and a frame payload
	// hold it.
	want, failed := run(c.data, 0)
	// In the archive the block runs on into the end marker, which a
	// truncated block's framing and decode consume.
	skipOff, skipErr := referenceSkip(archive[blockOff:], c.n)
	framed := archive[blockOff : blockOff+int64(skipOff)]

	// Both Open paths: one framing kernel, one message.
	wantOpen := marker(blockOff+int64(skipOff), true)
	if skipErr != "" {
		wantOpen = formatf("rank %d at archive byte %d: %s", rank, blockOff, skipErr).Error()
	}
	rsBytes, err := OpenRankStreamsBytes(archive)
	if errText(err) != wantOpen {
		t.Fatalf("OpenRankStreamsBytes: %q, want %q", errText(err), wantOpen)
	}
	rsReader, err := OpenRankStreams(bytes.NewReader(archive), int64(len(archive)))
	if errText(err) != wantOpen {
		t.Fatalf("OpenRankStreams: %q, want %q", errText(err), wantOpen)
	}
	if err == nil {
		exp, failed := run(framed, 0)
		if exp.err != "" {
			exp.err = formatf("rank %d event %d (archive byte %d): %s", rank, failed, blockOff+exp.offset, exp.err).Error()
		}
		exp.offset = 0
		for name, rs := range map[string]*RankStreams{"bytes": rsBytes, "reader": rsReader} {
			var got decodeResult
			got.err = errText(rs.StreamRank(rank, collect(&got)))
			checkResult(t, "opened StreamRank "+name, got, exp)
		}
	}

	// StreamRank over both backings, with the span set by hand so blocks
	// that fail framing still reach the decode loop.
	span := []rankSpan{{nev: c.n, off: blockOff, len: int64(len(c.data))}}
	for name, rs := range map[string]*RankStreams{
		"bytes":  {header: h, data: archive, spans: span},
		"reader": {header: h, src: bytes.NewReader(archive), spans: span},
	} {
		var got decodeResult
		got.err = errText(rs.StreamRank(0, collect(&got)))
		exp := decodeResult{events: want.events}
		if want.err != "" {
			exp.err = formatf("rank 0 event %d (archive byte %d): %s", failed, blockOff+want.offset, want.err).Error()
		}
		checkResult(t, "StreamRank "+name, got, exp)
	}

	// Read: the framing scan first, then the block decode, then the end
	// marker.
	tr, err := Read(bytes.NewReader(archive))
	exp, rf := run(framed, 0)
	exp = wrap(exp, rf, "rank %d event %d: %s", rank)
	switch {
	case skipErr != "":
		exp.err = formatf("rank %d %s", rank, skipErr).Error()
	case exp.err == "":
		exp.err = marker(blockOff+int64(skipOff), false)
	}
	if errText(err) != exp.err {
		t.Fatalf("Read: %q, want %q", errText(err), exp.err)
	} else if err == nil && !sameEvents(tr.Procs[rank].Events, exp.events) {
		t.Fatalf("Read: %d events, want %d", len(tr.Procs[rank].Events), len(exp.events))
	}

	// Stream: no framing scan; offsets count from the first event count,
	// and the events before a failure reach fn.
	var got decodeResult
	_, err = Stream(bytes.NewReader(archive), func(r Rank, ev Event) error {
		got.events = append(got.events, ev)
		return nil
	})
	got.err = errText(err)
	sw, sf := run(archive[len(hdr):], int(blockOff)-len(hdr))
	end := int64(len(hdr)) + sw.offset
	if exp = wrap(sw, sf, "rank %d event %d: %s", rank); exp.err == "" {
		exp.err = marker(end, false)
	}
	checkResult(t, "Stream", got, exp)

	// DecodeFrameEvents: the block as a live frame payload.
	got = decodeResult{}
	got.err = errText(DecodeFrameEvents(c.data, c.n, int(c.nregions), int(c.nmetrics), int(c.nprocs), collect(&got)))
	if exp = wrap(want, failed, "frame event %d: %s"); exp.err == "" && want.offset != int64(len(c.data)) {
		exp.err = formatf("frame payload has %d trailing bytes after %d events", int64(len(c.data))-want.offset, c.n).Error()
	}
	checkResult(t, "DecodeFrameEvents", got, exp)

	if !dir {
		return
	}
	// The directory archive: ReadDir and DirStreams decode the block
	// from the rank's own file.
	d := t.TempDir()
	if err := WriteAnchor(d, h); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d, rankFileName(rank))
	file := binary.AppendUvarint([]byte(rankMagic), uint64(rank))
	file = binary.LittleEndian.AppendUint64(file, c.n)
	if err := os.WriteFile(path, append(file, c.data...), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDirRankStreams(d)
	if err != nil {
		t.Fatal(err)
	}
	got = decodeResult{}
	got.err = errText(ds.StreamRank(rank, collect(&got)))
	checkResult(t, "DirStreams.StreamRank", got, wrap(want, failed, "%s: rank %d event %d: %s", path, rank))
	tr, err = ReadDir(d)
	if exp := wrap(want, failed, "%s: event %d: %s", path); errText(err) != exp.err {
		t.Fatalf("ReadDir: %q, want %q", errText(err), exp.err)
	} else if err == nil && !sameEvents(tr.Procs[rank].Events, want.events) {
		t.Fatalf("ReadDir: %d events, want %d", len(tr.Procs[rank].Events), len(want.events))
	}
}

func TestDecodeEntryLoopsMatchReferenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genCase(rng, 1+rng.Intn(300), seed%2 == 0)
		checkEntryLoops(t, c, true)
	}
}

// Truncation at every byte through every entry loop (the directory
// archive at every seventh cut, to keep file churn down).
func TestDecodeEntryLoopsTruncatedAtEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := genCase(rng, 40, false)
	c.n = 40
	for cut := 0; cut <= len(c.data); cut++ {
		tc := c
		tc.data = c.data[:cut]
		checkEntryLoops(t, tc, cut%7 == 0)
	}
}

// Blocks larger than the 64 KiB stream window put events across every
// refill of the archive, rank-file and Stream decoders.
func TestDecodeEntryLoopsAcrossWindowBoundaries(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		c := genCase(rng, 40000, false)
		checkEntryLoops(t, c, true)
		// Cut and corrupt right around the first window boundary.
		for _, at := range []int{1<<16 - 20, 1<<16 - 1, 1 << 16, 1<<16 + 3} {
			if at >= len(c.data) {
				continue
			}
			tc := c
			tc.data = c.data[:at]
			checkEntryLoops(t, tc, false)
			tc.data = append([]byte(nil), c.data...)
			tc.data[at] = 0xEE
			checkEntryLoops(t, tc, false)
		}
	}
}

// FuzzDecodeFrameEvents decodes arbitrary live-frame payloads: the result
// must match the reference decoder, an accepted payload must be consumed
// exactly, and decoding allocates no more than a constant plus a small
// multiple of the payload, whatever count the frame declares.
func FuzzDecodeFrameEvents(f *testing.F) {
	seed, err := AppendFrame(nil, 1, frameEvents())
	if err != nil {
		f.Fatal(err)
	}
	_, count, payload, _, err := DecodeFrame(seed, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload, uint32(count), uint8(2), uint8(1), uint8(4))
	f.Add(payload, uint32(count+1), uint8(2), uint8(1), uint8(4))
	f.Add(payload, uint32(count), uint8(1), uint8(0), uint8(1))
	f.Add(payload[:len(payload)-3], uint32(count), uint8(2), uint8(1), uint8(4))
	f.Add([]byte{0xEE, 0x01, 0x00}, uint32(1), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{0x00, 0x80, 0x00, 0x80, 0x00}, uint32(1), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00}, uint32(1), uint8(1), uint8(1), uint8(1))
	f.Add([]byte{}, uint32(1<<31), uint8(1), uint8(1), uint8(1))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		c := genCase(rng, 1+rng.Intn(60), i%2 == 1)
		f.Add(c.data, uint32(c.n), uint8(c.nregions), uint8(c.nmetrics), uint8(c.nprocs))
	}
	f.Fuzz(func(t *testing.T, payload []byte, count uint32, nregions, nmetrics, nprocs uint8) {
		c := decodeCase{data: payload, n: uint64(count), nregions: uint64(nregions), nmetrics: uint64(nmetrics), nprocs: uint64(nprocs)}
		want, failed := referenceRun(c, newSliceDecoder(payload, c.nregions, c.nmetrics, c.nprocs))
		if want.err != "" {
			want.err = formatf("frame event %d: %s", failed, want.err).Error()
		} else if want.offset != int64(len(payload)) {
			want.err = formatf("frame payload has %d trailing bytes after %d events", int64(len(payload))-want.offset, count).Error()
		}
		var got decodeResult
		err := DecodeFrameEvents(payload, c.n, int(nregions), int(nmetrics), int(nprocs), func(ev Event) error {
			got.events = append(got.events, ev)
			return nil
		})
		got.err = errText(err)
		got.offset = want.offset
		checkResult(t, "DecodeFrameEvents", got, want)
		if err == nil && want.offset != int64(len(payload)) {
			t.Fatalf("accepted a payload with %d unread bytes", int64(len(payload))-want.offset)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = DecodeFrameEvents(payload, c.n, int(nregions), int(nmetrics), int(nprocs), func(Event) error { return nil })
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(payload))+16<<10 {
			t.Fatalf("decoding a %d-byte frame declaring %d events allocated %d bytes", len(payload), count, alloc)
		}
	})
}
