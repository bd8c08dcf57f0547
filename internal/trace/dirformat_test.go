package trace

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDirRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archive")
	tr := validTwoRankTrace()
	if err := WriteDir(dir, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Fatal("dir round trip mismatch")
	}
	// The expected files exist.
	for _, name := range []string{"anchor.pvta", "rank-0.pvte", "rank-1.pvte"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

func TestDirRoundTripProperty(t *testing.T) {
	base := t.TempDir()
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		dir := filepath.Join(base, "a")
		if err := WriteDir(dir, tr); err != nil {
			return false
		}
		got, err := ReadDir(dir)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRankWriterIncremental(t *testing.T) {
	// Simulate the measurement-time flow: write the anchor once, then
	// each "process" streams its own events.
	dir := t.TempDir()
	tr := New("incr", 3)
	f := tr.AddRegion("f", ParadigmUser, RoleFunction)
	if err := WriteDir(dir, tr); err != nil { // anchor + empty rank files
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		w, err := NewRankWriter(dir, rank)
		if err != nil {
			t.Fatal(err)
		}
		now := Time(rank) // skewed starts are fine
		for i := 0; i < 5; i++ {
			if err := w.Write(Enter(now, f)); err != nil {
				t.Fatal(err)
			}
			now += 10
			if err := w.Write(Leave(now, f)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		if n := len(got.Procs[rank].Events); n != 10 {
			t.Fatalf("rank %d events = %d", rank, n)
		}
	}
}

func TestDirMissingRankFileIsEmptyStream(t *testing.T) {
	dir := t.TempDir()
	tr := validTwoRankTrace()
	if err := WriteDir(dir, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "rank-1.pvte")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Procs[0].Events) == 0 || len(got.Procs[1].Events) != 0 {
		t.Fatalf("events: r0=%d r1=%d", len(got.Procs[0].Events), len(got.Procs[1].Events))
	}
}

func TestDirErrors(t *testing.T) {
	if _, err := ReadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	// Corrupt anchor.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, anchorName), []byte("JUNKJUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("corrupt anchor accepted")
	}
	// Corrupt rank file.
	dir2 := t.TempDir()
	tr := validTwoRankTrace()
	if err := WriteDir(dir2, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "rank-0.pvte"), []byte("BADX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir2); err == nil {
		t.Fatal("corrupt rank file accepted")
	}
	// Rank mismatch inside the file.
	dir3 := t.TempDir()
	if err := WriteDir(dir3, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir3, "rank-1.pvte"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir3, "rank-0.pvte"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir3); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestRankWriterRejectsUnsorted(t *testing.T) {
	dir := t.TempDir()
	w, err := NewRankWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write(Enter(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Leave(50, 0)); err == nil {
		t.Fatal("unsorted write accepted")
	}
}

// TestReadDirAllocatesOncePerEvent is TestReadAllocatesOncePerEvent for
// directory archives: each rank file is decoded through a window, so
// its slice is sized once from the file's size, and ReadDir allocates
// about one 48-byte Event per event. Growing each slice from a capped
// start, as the decoder must when nothing bounds its input, cost 178
// bytes per event here.
func TestReadDirAllocatesOncePerEvent(t *testing.T) {
	const ranks, calls = 4, 100_000
	tr := New("alloc", ranks)
	f := tr.AddRegion("f", ParadigmUser, RoleFunction)
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < calls; i++ {
			tr.Append(Rank(rank), Enter(Time(2*i), f))
			tr.Append(Rank(rank), Leave(Time(2*i+1), f))
		}
	}
	dir := t.TempDir()
	if err := WriteDir(dir, tr); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadDir(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != tr.NumEvents() {
		t.Fatalf("read %d events, want %d", got.NumEvents(), tr.NumEvents())
	}
	perEvent := (after.TotalAlloc - before.TotalAlloc) / uint64(tr.NumEvents())
	t.Logf("ReadDir allocated %d bytes per event", perEvent)
	if perEvent > 64 {
		t.Errorf("ReadDir allocated %d bytes per event, want at most 64", perEvent)
	}
}
