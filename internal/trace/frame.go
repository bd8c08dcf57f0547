package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
)

// Live frame wire format (version 1): the unit of push-based ingestion.
// A measurement client ships one rank's next batch of events as a
// self-delimiting frame; a request body is any number of frames
// concatenated:
//
//	frame := uvarint rank | uvarint #events | uvarint #bytes | payload
//
// The payload is #events events in the shared event codec with the
// timestamp delta base reset to zero, so the first event's delta is its
// absolute timestamp and every frame decodes independently of its
// predecessors. Within a frame, timestamps are non-decreasing by
// construction (deltas are unsigned); ordering across frames of the same
// rank is the receiver's per-session check. The byte-length prefix lets a
// receiver enforce its frame-size limit before touching the payload.

// FrameFormatVersion is the live frame wire-format version negotiated at
// session creation.
const FrameFormatVersion = 1

// AppendFrame encodes one frame carrying rank's next events (timestamps
// non-decreasing) and appends it to dst.
func AppendFrame(dst []byte, rank Rank, evs []Event) ([]byte, error) {
	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)
	enc := newEventEncoder(bw)
	for _, ev := range evs {
		if err := enc.encode(ev); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(rank))
	dst = append(dst, scratch[:n]...)
	n = binary.PutUvarint(scratch[:], uint64(len(evs)))
	dst = append(dst, scratch[:n]...)
	n = binary.PutUvarint(scratch[:], uint64(payload.Len()))
	dst = append(dst, scratch[:n]...)
	return append(dst, payload.Bytes()...), nil
}

// minEventEncodedLen is the smallest possible encoded event: one kind
// byte, a one-byte timestamp delta, and a one-byte region id — the floor
// that bounds how many events a frame of a given size can declare.
const minEventEncodedLen = 3

// DecodeFrame splits one frame off the front of data, returning the
// rank, the declared event count, the undecoded payload, and the
// remaining bytes. maxPayload > 0 caps the payload length, rejecting
// larger frames with ErrTooLarge before any of the payload is examined;
// malformed framing is ErrFormat. The payload itself is decoded
// separately by DecodeFrameEvents.
func DecodeFrame(data []byte, maxPayload int64) (rank Rank, count uint64, payload, rest []byte, err error) {
	off := 0
	uvarint := func(field string) (uint64, bool) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			err = formatf("frame %s at byte %d: truncated or overlong varint", field, off)
			return 0, false
		}
		off += n
		return v, true
	}
	r, ok := uvarint("rank")
	if !ok {
		return 0, 0, nil, nil, err
	}
	if r > maxDefs {
		return 0, 0, nil, nil, formatf("frame rank %d exceeds limit", r)
	}
	count, ok = uvarint("event count")
	if !ok {
		return 0, 0, nil, nil, err
	}
	if count > maxEvents {
		return 0, 0, nil, nil, formatf("frame event count %d exceeds limit", count)
	}
	nbytes, ok := uvarint("payload length")
	if !ok {
		return 0, 0, nil, nil, err
	}
	if maxPayload > 0 && nbytes > uint64(maxPayload) {
		return 0, 0, nil, nil, fmt.Errorf("%w: frame payload %d bytes exceeds the %d-byte frame limit", ErrTooLarge, nbytes, maxPayload)
	}
	if uint64(len(data)-off) < nbytes {
		return 0, 0, nil, nil, formatf("frame payload truncated: declared %d bytes, %d remain", nbytes, len(data)-off)
	}
	if count*minEventEncodedLen > nbytes {
		return 0, 0, nil, nil, formatf("frame declares %d events in %d bytes", count, nbytes)
	}
	payload = data[off : off+int(nbytes)]
	return Rank(r), count, payload, data[off+int(nbytes):], nil
}

// DecodeFrameEvents decodes exactly count events from a frame payload,
// feeding each to fn. The nregions/nmetrics/nprocs bounds validate the
// decoded ids exactly as archive decoding does. The payload must be
// fully consumed: trailing bytes are a format error, so a frame cannot
// smuggle undeclared data past the receiver.
func DecodeFrameEvents(payload []byte, count uint64, nregions, nmetrics, nprocs int, fn func(Event) error) error {
	dec := newSliceDecoder(payload, uint64(nregions), uint64(nmetrics), uint64(nprocs))
	err := dec.decodeEach(count, fn, func(i uint64, err error) error {
		return formatf("frame event %d: %v", i, err)
	})
	if err != nil {
		return err
	}
	if dec.pos != dec.end {
		return formatf("frame payload has %d trailing bytes after %d events", dec.end-dec.pos, count)
	}
	return nil
}
