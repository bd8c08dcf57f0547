package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func tracesEqual(a, b *Trace) bool {
	if a.Name != b.Name ||
		!reflect.DeepEqual(a.Regions, b.Regions) ||
		!reflect.DeepEqual(a.Metrics, b.Metrics) ||
		len(a.Procs) != len(b.Procs) {
		return false
	}
	for i := range a.Procs {
		if a.Procs[i].Proc != b.Procs[i].Proc {
			return false
		}
		ae, be := a.Procs[i].Events, b.Procs[i].Events
		if len(ae) != len(be) {
			return false
		}
		for j := range ae {
			if ae[j] != be[j] {
				return false
			}
		}
	}
	return true
}

func TestRoundTripSmall(t *testing.T) {
	tr := validTwoRankTrace()
	got := roundTrip(t, tr)
	if !tracesEqual(tr, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	tr := New("", 0)
	got := roundTrip(t, tr)
	if got.Name != "" || got.NumRanks() != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
}

// randomTrace builds a structurally valid pseudo-random trace from a seed.
func randomTrace(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	nranks := 1 + rng.Intn(4)
	b := NewBuilder("rnd", nranks)
	var regions []RegionID
	for i := 0; i < 1+rng.Intn(5); i++ {
		p := Paradigm(rng.Intn(5))
		regions = append(regions, b.Region(string(rune('a'+i)), p, RegionRole(rng.Intn(8))))
	}
	var metrics []MetricID
	for i := 0; i < rng.Intn(3); i++ {
		metrics = append(metrics, b.Metric(string(rune('m'+i)), "1", MetricMode(rng.Intn(2))))
	}
	for rank := Rank(0); rank < Rank(nranks); rank++ {
		now := Time(rng.Intn(10))
		var stack []RegionID
		for step := 0; step < 5+rng.Intn(40); step++ {
			now += Time(rng.Intn(1000))
			switch op := rng.Intn(5); {
			case op == 0 || len(stack) == 0:
				r := regions[rng.Intn(len(regions))]
				b.Enter(rank, now, r)
				stack = append(stack, r)
			case op == 1:
				b.Leave(rank, now, stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			case op == 2 && len(metrics) > 0:
				b.Sample(rank, now, metrics[rng.Intn(len(metrics))], rng.Float64()*1e9)
			case op == 3:
				b.Send(rank, now, Rank(rng.Intn(nranks)), int32(rng.Intn(100)-50), int64(rng.Intn(1<<20)))
			default:
				b.Recv(rank, now, Rank(rng.Intn(nranks)), int32(rng.Intn(100)-50), int64(rng.Intn(1<<20)))
			}
		}
		for len(stack) > 0 {
			now += Time(rng.Intn(1000))
			b.Leave(rank, now, stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
	}
	return b.Trace()
}

// Property: Write∘Read is the identity on valid traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Logf("seed %d: Write: %v", seed, err)
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			t.Logf("seed %d: Read: %v", seed, err)
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random traces built via Builder always validate.
func TestBuilderProducesValidTracesProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		// Accumulated metrics may legitimately decrease in the random
		// generator, so only check when validation complains about
		// something else.
		err := tr.Validate()
		return err == nil || errors.Is(err, ErrInvalid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	tr := validTwoRankTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("NOPE"), good[4:]...)},
		{"bad version", append(append([]byte{}, good[:4]...), 9, 0, 0, 0)},
		{"truncated", good[:len(good)-6]},
		{"missing end marker", good[:len(good)-4]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(c.data))
			if err == nil {
				t.Fatal("Read succeeded on corrupt input")
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error %v is not ErrFormat", err)
			}
		})
	}
}

func TestReadRejectsTruncationEverywhere(t *testing.T) {
	tr := validTwoRankTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Every strict prefix must fail (the end marker catches short reads).
	for n := 0; n < len(good); n += 3 {
		if _, err := Read(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(good))
		}
	}
}

func TestWriteRejectsUnsortedStream(t *testing.T) {
	tr := New("x", 1)
	r := tr.AddRegion("f", ParadigmUser, RoleFunction)
	tr.Procs[0].Events = []Event{Enter(10, r), Leave(5, r)}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err == nil {
		t.Fatal("Write accepted unsorted stream")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pvt")
	tr := validTwoRankTrace()
	if err := WriteFile(path, tr); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.pvt")); err == nil {
		t.Fatal("ReadFile on missing path succeeded")
	}
}

func TestReadLimitRejectsOversizedArchive(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, randomTrace(11)); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()

	// Under the limit: decodes normally.
	if _, err := ReadLimit(bytes.NewReader(encoded), int64(len(encoded))); err != nil {
		t.Fatalf("ReadLimit at exact size: %v", err)
	}
	// One byte short: the typed too-large error, not a generic format one.
	_, err := ReadLimit(bytes.NewReader(encoded), int64(len(encoded))-1)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadLimit under size: err = %v, want ErrTooLarge", err)
	}
	// A stream that never ends must not be slurped to OOM: the reader
	// stops at the cap. endlessReader yields valid header bytes followed
	// by zeros forever.
	endless := io.MultiReader(bytes.NewReader(encoded[:len(encoded)-4]), zeros{})
	if _, err := ReadLimit(endless, 1<<20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("endless stream: err = %v, want ErrTooLarge", err)
	}
	// limit <= 0 means uncapped.
	if _, err := ReadLimit(bytes.NewReader(encoded), 0); err != nil {
		t.Fatalf("uncapped ReadLimit: %v", err)
	}
}

// zeros is an infinite stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestReadAnyLimit(t *testing.T) {
	tr := randomTrace(12)
	var bin, txt bytes.Buffer
	if err := Write(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	for name, encoded := range map[string][]byte{"binary": bin.Bytes(), "text": txt.Bytes()} {
		got, err := ReadAny(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("%s: ReadAny: %v", name, err)
		}
		if !tracesEqual(tr, got) {
			t.Fatalf("%s: ReadAny round trip mismatch", name)
		}
		if _, err := ReadAnyLimit(bytes.NewReader(encoded), 16); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: ReadAnyLimit(16) err = %v, want ErrTooLarge", name, err)
		}
	}
	if _, err := ReadAny(bytes.NewReader([]byte("NOPE no such format"))); err == nil {
		t.Fatal("ReadAny accepted garbage")
	}
}

// TestReadAllocatesOncePerEvent bounds what Read allocates per event of
// a large archive: each rank's slice is sized once from its block, so
// the total stays near one 48-byte Event per event plus the archive
// bytes read (64 bytes per event on this 3-byte-per-event archive),
// where growing each slice from a capped start cost about 195.
// Version-1 archives, located by the framing scan, are held to the same
// bound.
func TestReadAllocatesOncePerEvent(t *testing.T) {
	const ranks, calls = 4, 100_000
	tr := New("alloc", ranks)
	f := tr.AddRegion("f", ParadigmUser, RoleFunction)
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < calls; i++ {
			tr.Append(Rank(rank), Enter(Time(2*i), f))
			tr.Append(Rank(rank), Leave(Time(2*i+1), f))
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	events := uint64(tr.NumEvents())
	for version, data := range map[string][]byte{"v2": buf.Bytes(), "v1": pvtrV1(t, buf.Bytes())} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEvents() != tr.NumEvents() {
			t.Fatalf("%s: read %d events, want %d", version, got.NumEvents(), tr.NumEvents())
		}
		if perEvent := (after.TotalAlloc - before.TotalAlloc) / events; perEvent > 96 {
			t.Errorf("%s: Read allocated %d bytes per event, want at most 96", version, perEvent)
		}
	}
}
