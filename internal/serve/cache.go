package serve

import (
	"container/list"
	"context"
	"sync"
)

// lruCache is the content-addressed result cache: key → analysis value,
// bounded by entry count AND by an approximate byte budget, with
// least-recently-used eviction. Keys are derived from the SHA-256 of the
// trace bytes plus the canonical analysis options (see cacheKey), so two
// uploads of the same archive — or the same whitelisted file read twice —
// resolve to the same entry without trusting names or timestamps.
//
// Each entry carries a size estimate (the archive length of the trace it
// was computed from — decoded results retain the trace, so archive bytes
// are a lower bound on residency). The byte budget keeps a cache full of
// maximum-size uploads from pinning gigabytes that the entry count alone
// would permit.
type lruCache struct {
	mu        sync.Mutex
	capacity  int
	maxBytes  int64
	bytes     int64
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	evictions int64
}

type lruEntry struct {
	key  string
	val  any
	size int64
}

func newLRU(capacity int, maxBytes int64) *lruCache {
	if capacity <= 0 {
		capacity = 128
	}
	if maxBytes <= 0 {
		maxBytes = 512 << 20
	}
	return &lruCache{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
}

func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts val under key, charging size bytes against the budget. A
// value bigger than the entire budget is not cached at all — pinning it
// would mean evicting everything else for one entry.
func (c *lruCache) put(key string, val any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*lruEntry)
		c.bytes += size - ent.size
		ent.val, ent.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&lruEntry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.ll.Len() > c.capacity || c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		ent := oldest.Value.(*lruEntry)
		c.ll.Remove(oldest)
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		c.evictions++
	}
}

func (c *lruCache) stats() (entries int, bytes, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes, c.evictions
}

// flightGroup deduplicates concurrent identical computations
// (singleflight): the first request for a key starts the work in its own
// goroutine, later requests subscribe to the same in-flight call, and
// the result is handed to every subscriber. Each call runs under a
// compute context detached from any single request; subscribers are
// refcounted and the LAST one to hang up cancels the computation — one
// impatient client cannot kill the answer its peers are still waiting
// for, yet fully abandoned work stops burning pool workers.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	val     any
	err     error
	waiters int
	ctx     context.Context
	cancel  context.CancelFunc
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once per key among concurrent callers. ctx governs only
// this caller's wait; newComputeCtx mints the context the computation
// itself runs under (typically server base context + timeout). The
// shared flag reports that this caller joined an in-flight computation
// started by someone else.
func (g *flightGroup) do(
	ctx context.Context,
	key string,
	newComputeCtx func() (context.Context, context.CancelFunc),
	fn func(ctx context.Context) (any, error),
) (val any, err error, shared bool) {
	if err := ctx.Err(); err != nil {
		// The caller hung up before asking: start and join nothing. Were
		// it to start a call, a computation finished by the time of the
		// select below would race its own hang-up for the answer.
		return nil, err, false
	}
	g.mu.Lock()
	c, joined := g.calls[key]
	if joined && c.ctx.Err() != nil {
		// The mapped call was already cancelled (its last waiter left, or
		// the server is shutting down) but its goroutine has not yet
		// unmapped it. Joining would hand this caller context.Canceled
		// even though its own context is live — start a fresh call.
		joined = false
	}
	if !joined {
		cctx, cancel := newComputeCtx()
		c = &flightCall{done: make(chan struct{}), ctx: cctx, cancel: cancel}
		g.calls[key] = c
		go func() {
			v, err := fn(cctx)
			c.val, c.err = v, err
			g.mu.Lock()
			// A cancelled predecessor may have been superseded by a fresh
			// call under the same key; only unmap our own.
			if g.calls[key] == c {
				delete(g.calls, key)
			}
			g.mu.Unlock()
			close(c.done)
			cancel()
		}()
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, c.err, joined
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			// Every subscriber hung up: stop the computation so its
			// pool workers drain instead of finishing work nobody
			// will read.
			c.cancel()
		}
		g.mu.Unlock()
		return nil, ctx.Err(), joined
	}
}
