package chunk

import "testing"

// TestListRecycles appends across every size class, checks order, count
// and chunk capacities, then refills released chunks and checks that the
// second list reads only its own records.
func TestListRecycles(t *testing.T) {
	var pool Pool[[2]int64]
	for _, n := range []int{0, 1, MinLen - 1, MinLen, MinLen + 1, 3 * MinLen, MaxLen*3 + 7} {
		for round := 0; round < 2; round++ {
			l := NewList(&pool)
			for i := 0; i < n; i++ {
				l.Append([2]int64{int64(i), int64(round)})
			}
			next := 0
			for c := 0; c < l.NumChunks(); c++ {
				if want := MinLen << min(c, classes-1); cap(*l.chunks[c]) != want {
					t.Fatalf("n=%d: chunk %d capacity %d, want %d", n, c, cap(*l.chunks[c]), want)
				}
				for _, v := range l.Chunk(c) {
					if v != [2]int64{int64(next), int64(round)} {
						t.Fatalf("n=%d round %d: record %d = %v", n, round, next, v)
					}
					next++
				}
			}
			if next != n {
				t.Fatalf("n=%d round %d: read %d records", n, round, next)
			}
			l.Release()
			if l.NumChunks() != 0 {
				t.Fatalf("n=%d: released list holds %d chunks", n, l.NumChunks())
			}
		}
	}
}
