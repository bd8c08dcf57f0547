package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"perfvar/internal/trace"
)

// bodyChunkLen is the size of the pooled chunks readBody reads into.
const bodyChunkLen = 32 << 10

var bodyChunks = sync.Pool{New: func() any { b := make([]byte, bodyChunkLen); return &b }}

// readBody drains r's body, failing with trace.ErrTooLarge ("<what>
// exceeds <limit> bytes", a 413) once it passes limit bytes. It reads
// into pooled fixed-size chunks as the bytes arrive and copies them once
// into an exact-size slice, so what it allocates follows the bytes
// received: a Content-Length is never trusted to size a buffer, and an
// upload costs its own size rather than io.ReadAll's doublings.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	var chunks []*[]byte
	defer func() {
		for _, c := range chunks {
			bodyChunks.Put(c)
		}
	}()
	fill := bodyChunkLen // bytes in the last chunk
	for {
		if fill == bodyChunkLen {
			chunks = append(chunks, bodyChunks.Get().(*[]byte))
			fill = 0
		}
		n, err := body.Read((*chunks[len(chunks)-1])[fill:])
		fill += n
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				err = fmt.Errorf("%w: %s exceeds %d bytes", trace.ErrTooLarge, what, tooBig.Limit)
			}
			return nil, err
		}
	}
	data := make([]byte, (len(chunks)-1)*bodyChunkLen+fill)
	for i, c := range chunks {
		copy(data[i*bodyChunkLen:], *c)
	}
	return data, nil
}
