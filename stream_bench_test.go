package perfvar

// BenchmarkAnalyzeStream quantifies the tentpole claim of the streaming
// engine: on the paper-scale 200-rank FD4 workload, analyzing the PVTR
// archive bytes via AnalyzeSource(ArchiveSource(...)) must allocate a
// small fraction of what the materialized decode-then-Analyze path does
// — memory bounded by ranks × depth + segments, never by event count.
// CI gates on the B/op ratio of the two sub-benchmarks.

import (
	"bytes"
	"context"
	"testing"

	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func fd4ArchiveBytes(b testing.TB) []byte {
	b.Helper()
	tr, err := workloads.FD4(workloads.DefaultFD4())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkAnalyzeStream(b *testing.B) {
	data := fd4ArchiveBytes(b)
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			tr, err := trace.ReadAny(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Analyze(tr, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeSource(context.Background(), ArchiveSource(data), Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
