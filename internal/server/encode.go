package server

import "unicode/utf8"

// The result encoder: the SPARQL JSON document is appended into one reused
// byte slice, so encoding allocates per request (a buffer the server keeps
// for the next one), never per binding. The bytes are those encoding/json
// writes for the same strings — FuzzAppendJSONString and the golden documents
// under testdata hold it to that.

const hexDigits = "0123456789abcdef"

// jsonEscape classifies the ASCII bytes the way encoding/json does with HTML
// escaping on: 0 copies the byte as is, 'u' writes it as \u00XX (controls and
// < > &), anything else is the letter of its two-byte escape.
var jsonEscape = func() (t [utf8.RuneSelf]byte) {
	for b := 0; b < ' '; b++ {
		t[b] = 'u'
	}
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

// appendJSONString appends s as a JSON string literal, byte for byte what
// json.Marshal(s) returns: < > & and U+2028/U+2029 escaped, invalid UTF-8
// replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			esc := jsonEscape[b]
			if esc == 0 {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if esc == 'u' {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			} else {
				dst = append(dst, '\\', esc)
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// encoder is one request's encoding state. The server keeps finished ones for
// later requests (Server.encoders), so a steady stream of requests encodes
// into memory it already has — a free list and not a sync.Pool, which the
// collector empties many times a second under a scan load and which would
// make a request's allocation count a matter of timing.
type encoder struct {
	buf   []byte // document bytes encoded and not yet written
	keys  []byte // every column's `"name":{"type":"literal","value":` prefix, back to back
	ends  []int  // column i's prefix is keys[ends[i-1]:ends[i]]
	wrote bool   // a row has been encoded: the next one takes a comma
}

// maxKeptEncoderBytes bounds the buffer an encoder may carry to the next
// request: one slab of very long values must not stay resident for good.
const maxKeptEncoderBytes = 1 << 20

// begin starts a document: the head, and the per-column binding prefixes the
// rows are assembled from.
func (e *encoder) begin(cols []string) {
	e.buf = append(e.buf[:0], `{"head":{"vars":[`...)
	e.keys, e.ends, e.wrote = e.keys[:0], e.ends[:0], false
	for i, c := range cols {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendJSONString(e.buf, c)
		e.keys = appendJSONString(e.keys, c)
		e.keys = append(e.keys, `:{"type":"literal","value":`...)
		e.ends = append(e.ends, len(e.keys))
	}
	e.buf = append(e.buf, `]},"results":{"bindings":[`...)
}

// rows appends one slab's binding objects.
func (e *encoder) rows(rows [][]string) {
	buf := e.buf
	for _, row := range rows {
		if e.wrote {
			buf = append(buf, ',')
		}
		e.wrote = true
		buf = append(buf, '{')
		from := 0
		for i, v := range row {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, e.keys[from:e.ends[i]]...)
			from = e.ends[i]
			buf = appendJSONString(buf, v)
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
	}
	e.buf = buf
}

// end closes the document — with the nonstandard "error" member when the
// stream failed after its status line was decided.
func (e *encoder) end(err error) {
	if err == nil {
		e.buf = append(e.buf, "]}}"...)
		return
	}
	e.buf = append(e.buf, `]},"error":`...)
	e.buf = appendJSONString(e.buf, err.Error())
	e.buf = append(e.buf, '}')
}
