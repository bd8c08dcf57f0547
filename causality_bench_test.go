package perfvar

import (
	"context"
	"testing"
)

// BenchmarkCausalityStream times one causality miss as perfvard serves
// it: CausalitySource streams the 200-rank FD4 archive against its
// already-computed segment matrix, matches the messages, builds the
// dependency graph, attributes blame and names the candidates'
// functions.
func BenchmarkCausalityStream(b *testing.B) {
	data := fd4ArchiveBytes(b)
	src := ArchiveSource(data)
	res, err := AnalyzeSource(context.Background(), src, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := CausalitySource(context.Background(), src, res.Matrix)
		if err != nil {
			b.Fatal(err)
		}
		if len(an.Candidates) == 0 {
			b.Fatal("no causality candidates")
		}
	}
}
