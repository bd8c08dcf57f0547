package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Truncated archives must fail the framing scan with the rank and the
// byte offset where the archive broke off — a bare io.ErrUnexpectedEOF
// with no location is useless against a multi-gigabyte upload.
func TestOpenRankStreamsTruncatedLocatesFailure(t *testing.T) {
	tr := validTwoRankTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// The framing scan locates the blocks of a version-1 archive.
	good := pvtrV1(t, buf.Bytes())

	// Cut inside the last rank's event block (the end marker is 4 bytes,
	// so -6 lands mid-event or mid-count of the final rank), and corrupt
	// the kind byte of rank 1's first event: the framing kernel locates
	// it at the kind byte itself, before any varint after it.
	cut := good[:len(good)-6]
	rs, err := OpenRankStreamsBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	badKind := append([]byte(nil), good...)
	badKind[rs.spans[1].off] = 0xEE
	wantKind := fmt.Sprintf("%v: rank 1 at archive byte %d: event 0 at byte 0: unknown event kind 238", ErrFormat, rs.spans[1].off)
	for _, c := range []struct {
		name, want string
		data       []byte
	}{{"truncated", "", cut}, {"bad kind", wantKind, badKind}} {
		var msgs []string
		for _, open := range []struct {
			name string
			fn   func([]byte) (*RankStreams, error)
		}{
			{"reader", func(b []byte) (*RankStreams, error) {
				return OpenRankStreams(bytes.NewReader(b), int64(len(b)))
			}},
			{"bytes", OpenRankStreamsBytes},
		} {
			_, err := open.fn(c.data)
			if err == nil {
				t.Fatalf("%s %s: corrupt archive accepted", c.name, open.name)
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("%s %s: err = %v, want ErrFormat", c.name, open.name, err)
			}
			msg := err.Error()
			if n := strings.Count(msg, ErrFormat.Error()); n != 1 {
				t.Fatalf("%s %s: error names ErrFormat %d times: %v", c.name, open.name, n, err)
			}
			if !strings.Contains(msg, "rank 1") {
				t.Fatalf("%s %s: error does not name the failing rank: %v", c.name, open.name, err)
			}
			if !strings.Contains(msg, "byte") {
				t.Fatalf("%s %s: error does not locate the byte offset: %v", c.name, open.name, err)
			}
			if c.want != "" && !strings.HasSuffix(msg, c.want) {
				t.Fatalf("%s %s: err = %v, want suffix %q", c.name, open.name, err, c.want)
			}
			msgs = append(msgs, msg)
		}
		// One framing kernel behind both paths: one message.
		if msgs[0] != msgs[1] {
			t.Fatalf("%s: reader and bytes paths disagree:\n reader: %s\n bytes:  %s", c.name, msgs[0], msgs[1])
		}
	}

	// Cut inside the first rank's event count: rank 0 must be named.
	hdrLen := headerLen(t, good)
	_, err = OpenRankStreamsBytes(good[:hdrLen])
	if err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("header-only archive: err = %v, want rank 0 failure", err)
	}
}

// headerLen locates the end of the definition section: the offset
// OpenRankStreamsBytes starts its framing scan at.
func headerLen(t *testing.T, data []byte) int {
	t.Helper()
	r := bytes.NewReader(data)
	if _, _, err := readHeader(r); err != nil {
		t.Fatal(err)
	}
	return len(data) - r.Len()
}

// A decode failure during StreamRank (framing fine, payload corrupt)
// reports rank, event index, and the absolute archive byte offset.
func TestStreamRankDecodeErrorLocatesFailure(t *testing.T) {
	tr := validTwoRankTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rs, err := OpenRankStreamsBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first event's kind byte of rank 1's block. The framing
	// scan already ran over the pristine bytes, so the corruption is only
	// seen by the per-event decoder.
	off := rs.spans[1].off
	orig := data[off]
	data[off] = 0xEE
	defer func() { data[off] = orig }()
	err = rs.StreamRank(1, func(Event) error { return nil })
	if err == nil {
		t.Fatal("corrupt event accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1 event 0") || !strings.Contains(msg, "archive byte") {
		t.Fatalf("error does not locate the failure: %v", err)
	}
}
