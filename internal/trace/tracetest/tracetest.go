// Package tracetest holds helpers for tests that read PVTR archives of
// both versions.
package tracetest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"perfvar/internal/trace"
)

// V1 converts a version-2 PVTR archive (what trace.Write produces) to
// version 1: it patches the version word and strips the rank index.
// Readers take both versions, so a test can run each entry path on each.
func V1(v2 []byte) ([]byte, error) {
	h, err := trace.Stream(bytes.NewReader(v2), func(trace.Rank, trace.Event) error { return trace.ErrStopStream })
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(v2[4:]); v != 2 {
		return nil, fmt.Errorf("tracetest: archive version %d, want 2", v)
	}
	v1 := bytes.Clone(v2[:len(v2)-8*len(h.Procs)])
	binary.LittleEndian.PutUint32(v1[4:], 1)
	return v1, nil
}

// WriteV1File writes the version-1 form of the version-2 archive at src
// to dst.
func WriteV1File(dst, src string) error {
	v2, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	v1, err := V1(v2)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, v1, 0o644)
}
