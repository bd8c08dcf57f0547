package perfvar

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"perfvar/internal/parallel"
)

// BenchmarkStreamDecode measures archive decode on its own: an in-memory
// PVTR archive is opened through ArchiveSource (its blocks located by
// the rank index) and every rank is streamed, in parallel as the engine
// streams them, into a no-op per-event consumer. Its ns/event over BenchmarkAnalyzeSynthetic's is what
// decode costs against the analysis floor; CI gates that ratio on synth.
func BenchmarkStreamDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		data func(testing.TB) []byte
	}{
		{"fd4", fd4ArchiveBytes},
		{"synth", func(b testing.TB) []byte {
			var buf bytes.Buffer
			if err := benchSynthConfig().WriteArchive(&buf); err != nil {
				b.Fatal(err)
			}
			return buf.Bytes()
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data := bc.data(b)
			src := ArchiveSource(data)
			var events atomic.Int64
			decode := func(count bool) {
				streams, err := src.Open(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				defer streams.Close()
				err = parallel.ForEach(streams.NumRanks(), func(rank int) error {
					if !count {
						return streams.StreamRank(rank, func(Event) error { return nil })
					}
					return streams.StreamRank(rank, func(Event) error { events.Add(1); return nil })
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			decode(true)
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decode(false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events.Load()), "ns/event")
		})
	}
}
