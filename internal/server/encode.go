package server

import "rdfviews/internal/dict"

// The result encoder: the SPARQL JSON document is appended into reused byte
// slices, so encoding allocates per request (buffers the server keeps for
// the next one), never per binding. Each value is copied from the
// dictionary's table of rendered literals (dict.Literals) by the stream
// itself (Stream.AppendRows); names and error messages go through the same
// escaper (dict.AppendJSONString). The bytes are those encoding/json writes
// for the same strings — the fuzz tests in internal/dict and here, and the
// golden documents under testdata, hold it to that.

// encoder is one request's encoding state. The server keeps finished ones for
// later requests (Server.encoders), so a steady stream of requests encodes
// into memory it already has — a free list and not a sync.Pool, which the
// collector empties many times a second under a scan load and which would
// make a request's allocation count a matter of timing.
type encoder struct {
	buf   []byte   // document bytes encoded and not yet written: whole slabs only
	next  []byte   // the slab pulled after buf's, encoded before buf is written
	keys  []byte   // every column's separator, back to back
	ends  []int    // column i's separator is keys[ends[i-1]:ends[i]]
	seps  [][]byte // the separators, sliced from keys
	close []byte   // what closes a row
	wrote bool     // a row has been encoded: the next one takes a comma
}

// maxKeptEncoderBytes bounds each buffer an encoder may carry to the next
// request: one slab of very long values must not stay resident for good.
const maxKeptEncoderBytes = 1 << 20

var (
	rowEnd   = []byte("}}") // closes a row's last binding, then the row
	emptyRow = []byte("{}") // a row of no columns
)

// begin starts a document: the head, and the separators the rows are
// assembled from — column i's `"name":{"type":"literal","value":`, after
// the `{` that opens a row or the `},` that closes the binding before it.
func (e *encoder) begin(cols []string) {
	e.buf = append(e.buf[:0], `{"head":{"vars":[`...)
	e.next, e.keys, e.ends, e.seps, e.wrote = e.next[:0], e.keys[:0], e.ends[:0], e.seps[:0], false
	for i, c := range cols {
		if i > 0 {
			e.buf = append(e.buf, ',')
			e.keys = append(e.keys, '}', ',')
		} else {
			e.keys = append(e.keys, '{')
		}
		e.buf = dict.AppendJSONString(e.buf, c)
		e.keys = dict.AppendJSONString(e.keys, c)
		e.keys = append(e.keys, `:{"type":"literal","value":`...)
		e.ends = append(e.ends, len(e.keys))
	}
	from := 0
	for _, to := range e.ends {
		e.seps = append(e.seps, e.keys[from:to])
		from = to
	}
	e.close = rowEnd
	if len(cols) == 0 {
		e.close = emptyRow
	}
	e.buf = append(e.buf, `]},"results":{"bindings":[`...)
}

// slab appends the stream's next slab of rows to *dst and returns how many
// it appended, 0 at the end of the stream. On an error *dst is unchanged.
func (e *encoder) slab(st Stream, dst *[]byte) (int, error) {
	b, n, err := st.AppendRows(*dst, e.wrote, e.seps, e.close)
	if err != nil {
		return 0, err
	}
	*dst = b
	e.wrote = e.wrote || n > 0
	return n, nil
}

// end closes the document — with the nonstandard "error" member when the
// stream failed after its status line was decided.
func (e *encoder) end(err error) {
	if err == nil {
		e.buf = append(e.buf, "]}}"...)
		return
	}
	e.buf = append(e.buf, `]},"error":`...)
	e.buf = dict.AppendJSONString(e.buf, err.Error())
	e.buf = append(e.buf, '}')
}
