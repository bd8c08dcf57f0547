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

// errTruncatedBody reports a request body that ended before its declared
// Content-Length: the upload was cut off, so the request, not the
// archive, is at fault (a 400, "truncated_body"). It unwraps to
// io.ErrUnexpectedEOF, what the body read returned, and costs no
// allocation on the failure path.
var errTruncatedBody error = truncatedBody{}

type truncatedBody struct{}

func (truncatedBody) Error() string {
	return "request body ends before its declared Content-Length: unexpected EOF"
}

func (truncatedBody) Unwrap() error { return io.ErrUnexpectedEOF }

// readBody drains r's body, failing with trace.ErrTooLarge ("<what>
// exceeds <limit> bytes", a 413) once it passes limit bytes, and with
// errTruncatedBody when it ends short of its Content-Length. It reads
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
			switch {
			case errors.As(err, &tooBig):
				err = fmt.Errorf("%w: %s exceeds %d bytes", trace.ErrTooLarge, what, tooBig.Limit)
			case errors.Is(err, io.ErrUnexpectedEOF):
				err = errTruncatedBody
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
