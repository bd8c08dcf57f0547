package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// pvtrV1 converts a version-2 PVTR archive to version 1: it patches the
// version word and strips the rank index.
func pvtrV1(t testing.TB, v2 []byte) []byte {
	t.Helper()
	h, version, err := readHeader(bytes.NewReader(v2))
	if err != nil || version != pvtrVersion {
		t.Fatalf("not a version-2 archive: version %d, err %v", version, err)
	}
	v1 := bytes.Clone(v2[:len(v2)-8*len(h.Procs)])
	binary.LittleEndian.PutUint32(v1[len(formatMagic):], formatVersion)
	return v1
}

// indexedTrace has three ranks of every event kind, the middle one
// empty, so its archive has a zero-length block between two others.
func indexedTrace() *Trace {
	tr := New("indexed", 3)
	main := tr.AddRegion("main", ParadigmUser, RoleFunction)
	bar := tr.AddRegion("MPI_Barrier", ParadigmMPI, RoleBarrier)
	cyc := tr.AddMetric("PAPI_TOT_CYC", "cycles", MetricAccumulated)
	for _, rank := range []Rank{0, 2} {
		tr.Append(rank, Enter(0, main))
		tr.Append(rank, Sample(2, cyc, 100))
		tr.Append(rank, Enter(5, bar))
		tr.Append(rank, Leave(300, bar))
		tr.Append(rank, Send(301, 2-rank, 7, 1<<20))
		tr.Append(rank, Recv(302, 2-rank, -7, 64))
		tr.Append(rank, Leave(310, main))
	}
	return tr
}

func encode(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll runs data through the four PVTR readers and returns each
// one's error: Read; Stream; and OpenRankStreams over an io.ReaderAt and
// OpenRankStreamsBytes, each followed by streaming every rank.
func readAll(data []byte) map[string]error {
	streamAll := func(rs *RankStreams, err error) error {
		for rank := 0; err == nil && rank < rs.NumRanks(); rank++ {
			err = rs.StreamRank(rank, func(Event) error { return nil })
		}
		return err
	}
	_, readErr := Read(bytes.NewReader(data))
	_, streamErr := Stream(bytes.NewReader(data), func(Rank, Event) error { return nil })
	return map[string]error{
		"Read":                 readErr,
		"Stream":               streamErr,
		"OpenRankStreams":      streamAll(OpenRankStreams(bytes.NewReader(data), int64(len(data)))),
		"OpenRankStreamsBytes": streamAll(OpenRankStreamsBytes(data)),
	}
}

// mustFail checks that every reader rejects data with ErrFormat, and,
// when want is set, that the Open paths' errors contain it.
func mustFail(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	for reader, err := range readAll(data) {
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: %s returned %v, want ErrFormat", what, reader, err)
		}
		if want != "" && strings.HasPrefix(reader, "Open") && !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %s: %v, want it to contain %q", what, reader, err, want)
		}
	}
}

func TestRankIndexRoundTrip(t *testing.T) {
	tr := indexedTrace()
	v2 := encode(t, tr)
	for name, data := range map[string][]byte{"v2": v2, "v1": pvtrV1(t, v2)} {
		for reader, err := range readAll(data) {
			if err != nil {
				t.Fatalf("%s %s: %v", name, reader, err)
			}
		}
		got, err := Read(bytes.NewReader(data))
		if err != nil || !tracesEqual(got, tr) {
			t.Fatalf("%s: Read does not round-trip (err %v)", name, err)
		}
	}
	// The writer's index names each rank's count varint.
	rs, err := OpenRankStreamsBytes(pvtrV1(t, v2))
	if err != nil {
		t.Fatal(err)
	}
	index := v2[len(v2)-8*len(rs.spans):]
	for rank, sp := range rs.spans {
		count := binary.AppendUvarint(nil, sp.nev)
		if got, want := binary.LittleEndian.Uint64(index[8*rank:]), uint64(sp.off)-uint64(len(count)); got != want {
			t.Fatalf("index entry %d = %d, want %d", rank, got, want)
		}
	}
}

// Each check the index must pass, failed on its own on an archive whose
// framing is intact: every reader rejects it, and the Open paths name
// the index.
func TestRankIndexRejectsEachCheck(t *testing.T) {
	good := encode(t, indexedTrace())
	n := len(indexedTrace().Procs)
	indexAt := len(good) - 8*n
	entry := func(data []byte, rank int) uint64 { return binary.LittleEndian.Uint64(data[indexAt+8*rank:]) }
	setEntry := func(data []byte, rank int, v uint64) { binary.LittleEndian.PutUint64(data[indexAt+8*rank:], v) }
	endAt := uint64(indexAt - len(formatEnd))
	cases := []struct {
		name, want string
		mutate     func(d []byte) []byte
	}{
		{"entry 0 past the definitions", "rank index entry 0", func(d []byte) []byte {
			setEntry(d, 0, entry(d, 0)+1)
			return d
		}},
		{"swapped entries", "rank index entry 2", func(d []byte) []byte {
			a, b := entry(d, 1), entry(d, 2)
			setEntry(d, 1, b)
			setEntry(d, 2, a)
			return d
		}},
		{"overlapping entries", "rank index entry 2", func(d []byte) []byte {
			setEntry(d, 2, entry(d, 1))
			return d
		}},
		{"entry at the end marker", "rank index entry 2", func(d []byte) []byte {
			setEntry(d, 2, endAt)
			return d
		}},
		{"entry out of range", "rank index entry 1", func(d []byte) []byte {
			setEntry(d, 1, 1<<63)
			return d
		}},
		{"count does not fit its block", "rank index: rank 0 declares", func(d []byte) []byte {
			setEntry(d, 1, entry(d, 0)+2)
			return d
		}},
		{"count varint runs into the next block", "does not end before", func(d []byte) []byte {
			// Rank 2's first event is a Send whose 1<<20-byte payload
			// size is a 3-byte varint: point rank 2 at its second byte,
			// then rank 1's block, from there, ends before the
			// continuation byte's terminator.
			at := entry(d, 2) + 1
			for d[at] < 0x80 {
				at++
			}
			setEntry(d, 1, at)
			setEntry(d, 2, at+1)
			return d
		}},
		{"bytes after the index", "rank index", func(d []byte) []byte { return append(d, 0) }},
		{"index one entry short", "rank index", func(d []byte) []byte { return d[:len(d)-8] }},
		{"index one entry long", "rank index", func(d []byte) []byte {
			return binary.LittleEndian.AppendUint64(d, endAt)
		}},
		{"end marker overwritten", "", func(d []byte) []byte {
			copy(d[endAt:], "ENDX")
			return d
		}},
	}
	for _, c := range cases {
		mustFail(t, c.name, c.mutate(bytes.Clone(good)), c.want)
	}
}

// A rank count that sizes an index larger than what follows the
// definitions fails the size check, the first one, before an index is
// read or allocated.
func TestRankIndexHostileRankCount(t *testing.T) {
	const nranks = 1 << 16
	h := &Header{Name: "hostile", Procs: make([]Process, nranks)}
	var buf bytes.Buffer
	if err := WriteFrom(&buf, h, make([]uint64, nranks), func(int, func(Event) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "hostile rank count", buf.Bytes()[:buf.Len()-8*nranks+8], "cannot hold")
}

// A block holding bytes after its declared events is rejected by the
// reader that decodes it: its count is one short, the index is intact.
func TestRankIndexRejectsTrailingBlockBytes(t *testing.T) {
	data := encode(t, indexedTrace())
	rs, err := OpenRankStreamsBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	data[rs.spans[0].off-1]-- // rank 0's one-byte count
	rs, err = OpenRankStreamsBytes(data)
	if err != nil {
		t.Fatalf("the index is intact, yet: %v", err)
	}
	err = rs.StreamRank(0, func(Event) error { return nil })
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "rank 0: ") || !strings.Contains(err.Error(), "bytes after its 6 events") {
		t.Fatalf("StreamRank: %v, want rank 0's trailing bytes", err)
	}
	// Stopping early checks nothing past the stop.
	if err := rs.StreamRank(0, func(Event) error { return ErrStopStream }); err != nil {
		t.Fatalf("StreamRank stopped early: %v", err)
	}
	mustFail(t, "trailing block bytes", data, "bytes after its 6 events")
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "bytes after its 6 events") {
		t.Fatalf("Read: %v, want rank 0's trailing bytes", err)
	}
}

// Every strict prefix of a version-2 archive fails through every reader,
// and a prefix cut in the events reads like the cut version-1 archive.
func TestRankIndexRejectsEveryPrefix(t *testing.T) {
	v2 := encode(t, indexedTrace())
	v1 := pvtrV1(t, v2)
	for cut := 0; cut < len(v2); cut++ {
		prefix := v2[:cut]
		mustFail(t, fmt.Sprintf("prefix %d/%d", cut, len(v2)), prefix, "")
		if cut <= 8 || cut >= len(v1) {
			continue // the version word, or a cut in the index
		}
		cutV1 := bytes.Clone(v1[:cut])
		for reader, err := range readAll(prefix) {
			if reader == "Stream" {
				continue // Stream never reads the index
			}
			if want := readAll(cutV1)[reader]; err.Error() != want.Error() {
				t.Fatalf("prefix %d: %s: %v, want the version-1 error %v", cut, reader, err, want)
			}
		}
	}
}

// FuzzRankIndex reads arbitrary archives two ways: OpenRankStreamsBytes
// followed by streaming every rank must agree with Read — the same
// definitions and events, or an ErrFormat from both — and neither may
// allocate more than a constant plus a multiple of the input, whatever
// rank count, index entries or event counts it declares.
func FuzzRankIndex(f *testing.F) {
	v2 := encode(f, indexedTrace())
	f.Add(v2)
	f.Add(pvtrV1(f, v2))
	f.Add(encode(f, validTwoRankTrace()))
	f.Add(pvtrV1(f, encode(f, validTwoRankTrace())))
	n := len(indexedTrace().Procs)
	indexAt := len(v2) - 8*n
	entry := func(d []byte, rank int) []byte { return d[indexAt+8*rank : indexAt+8*rank+8] }
	swapped := bytes.Clone(v2)
	copy(entry(swapped, 1), entry(v2, 2))
	copy(entry(swapped, 2), entry(v2, 1))
	f.Add(swapped)
	overlapping := bytes.Clone(v2)
	copy(entry(overlapping, 2), entry(v2, 1))
	f.Add(overlapping)
	outOfRange := bytes.Clone(v2)
	binary.LittleEndian.PutUint64(entry(outOfRange, 1), uint64(len(v2))+1)
	f.Add(outOfRange)
	shortCount := bytes.Clone(v2)
	binary.LittleEndian.PutUint64(entry(shortCount, 1), binary.LittleEndian.Uint64(entry(v2, 0))+2)
	f.Add(shortCount)
	h := &Header{Name: "hostile", Procs: make([]Process, 4096)}
	var hostile bytes.Buffer
	if err := WriteFrom(&hostile, h, make([]uint64, len(h.Procs)), func(int, func(Event) error) error { return nil }); err != nil {
		f.Fatal(err)
	}
	f.Add(hostile.Bytes()[:hostile.Len()-8*len(h.Procs)+8])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, readErr := Read(bytes.NewReader(data))
		var streamed [][]Event
		rs, err := OpenRankStreamsBytes(data)
		for rank := 0; err == nil && rank < rs.NumRanks(); rank++ {
			var evs []Event
			err = rs.StreamRank(rank, func(ev Event) error { evs = append(evs, ev); return nil })
			streamed = append(streamed, evs)
		}
		switch {
		case (readErr == nil) != (err == nil):
			t.Fatalf("Read: %v; OpenRankStreamsBytes and StreamRank: %v", readErr, err)
		case readErr != nil:
			if !errors.Is(readErr, ErrFormat) || !errors.Is(err, ErrFormat) {
				t.Fatalf("not ErrFormat: Read: %v; streams: %v", readErr, err)
			}
		default:
			h := rs.Header()
			if h.Name != tr.Name || len(h.Regions) != len(tr.Regions) || len(h.Metrics) != len(tr.Metrics) || len(h.Procs) != tr.NumRanks() {
				t.Fatalf("definitions differ")
			}
			for rank, evs := range streamed {
				if !sameEvents(evs, tr.Procs[rank].Events) {
					t.Fatalf("rank %d: streamed %d events, Read %d", rank, len(evs), len(tr.Procs[rank].Events))
				}
			}
		}

		for name, read := range map[string]func(){
			"Read": func() { _, _ = Read(bytes.NewReader(data)) },
			"streams": func() {
				rs, err := OpenRankStreamsBytes(data)
				for rank := 0; err == nil && rank < rs.NumRanks(); rank++ {
					err = rs.StreamRank(rank, func(Event) error { return nil })
				}
			},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			read()
			runtime.ReadMemStats(&after)
			// The costliest input per byte is a version-1 archive of
			// empty ranks, two bytes each: Read allocates about 123
			// bytes per input byte for 65536 of them.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 192*uint64(len(data))+256<<10 {
				t.Fatalf("%s: a %d-byte archive allocated %d bytes", name, len(data), alloc)
			}
		}
	})
}
