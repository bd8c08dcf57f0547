// Package chunk is the recycled record store behind the streaming
// engine's per-rank buffers whose size follows the input rather than
// the answer: the candidate segments of every possible dominant function
// (most of which lose selection) and each rank's maximal MPI intervals
// (dropped once binned).
//
// A List appends records into fixed-capacity chunks of MinLen, 2×MinLen,
// … records up to MaxLen, then MaxLen each. A full chunk is kept and a
// new one started, so a record is never copied while the list grows, and
// a chunk's backing array never changes. Release hands every chunk back
// to the List's Pool, one sync.Pool per size class, so a process that
// analyzes more than once reuses the same chunks instead of allocating
// them per analysis. Chunks are not cleared when recycled: the record
// type must hold no pointers, and whatever a caller keeps must be copied
// out of the list before Release.
package chunk

import "sync"

const (
	// MinLen is the capacity, in records, of a list's first chunk.
	MinLen = 16
	// MaxLen is the capacity of a list's ninth and every later chunk.
	MaxLen = 4096
	// classes is the number of chunk sizes: MinLen<<(classes-1) == MaxLen.
	classes = 9
)

// Pool recycles the chunks of one record type, one sync.Pool per size
// class. The zero value is ready; declare one package-level Pool per
// record type and hand its address to the Lists that use it.
type Pool[T any] struct {
	class [classes]sync.Pool
}

// get returns a chunk of size class c, pooled when one is free.
func (p *Pool[T]) get(c int) *[]T {
	if ch, ok := p.class[c].Get().(*[]T); ok {
		return ch
	}
	ch := make([]T, MinLen<<c)
	return &ch
}

// List is an append-only sequence of records stored in fixed-capacity
// chunks drawn from a Pool. A List is not safe for concurrent use.
type List[T any] struct {
	pool   *Pool[T]
	chunks []*[]T
	last   []T // the last chunk, full length
	fill   int // records in last
}

// NewList returns an empty list drawing its chunks from p.
func NewList[T any](p *Pool[T]) List[T] { return List[T]{pool: p} }

// Append adds v at the end of the list.
func (l *List[T]) Append(v T) {
	if l.fill == len(l.last) {
		l.grow()
	}
	l.last[l.fill] = v
	l.fill++
}

// grow starts the next chunk, one size class up until MaxLen.
func (l *List[T]) grow() {
	ch := l.pool.get(min(len(l.chunks), classes-1))
	l.chunks = append(l.chunks, ch)
	l.last, l.fill = *ch, 0
}

// NumChunks returns the number of chunks the list spans.
func (l *List[T]) NumChunks() int { return len(l.chunks) }

// Chunk returns the records of chunk i, 0 <= i < NumChunks, in append
// order. The slice aliases a pooled chunk: it is valid until Release.
func (l *List[T]) Chunk(i int) []T {
	if i == len(l.chunks)-1 {
		return l.last[:l.fill]
	}
	return *l.chunks[i]
}

// Release returns every chunk to the pool and empties the list, which
// stays usable: a later Append draws fresh chunks.
func (l *List[T]) Release() {
	for i, ch := range l.chunks {
		l.pool.class[min(i, classes-1)].Put(ch)
		l.chunks[i] = nil
	}
	l.chunks = l.chunks[:0]
	l.last, l.fill = nil, 0
}
