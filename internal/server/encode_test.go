package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"unicode/utf8"
)

// sameAsMarshal fails unless every string the server escapes comes out as
// json.Marshal writes it: a document whose column name and only value are s
// is the reference document (the name through dict.AppendJSONString, the
// value from the dictionary's rendered table), and a stream failing with s
// closes it with s as the error member.
func sameAsMarshal(t *testing.T, s string) {
	t.Helper()
	st := newStringStream([]string{s}, [][]string{{s}})
	var e encoder
	e.begin(st.Columns())
	if n, err := e.slab(st, &e.buf); n != 1 || err != nil {
		t.Fatalf("slab of %q: %d rows, %v", s, n, err)
	}
	doc := slices.Clone(e.buf)
	e.end(nil)
	if want := marshalDocument(st); !bytes.Equal(e.buf, want) {
		t.Fatalf("document of %q\n got %s\nwant %s", s, e.buf, want)
	}
	msg, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	e.buf = doc
	e.end(errors.New(s))
	if want := append(append(doc, `]},"error":`...), append(msg, '}')...); !bytes.Equal(e.buf, want) {
		t.Fatalf("error member of %q\n got %s\nwant %s", s, e.buf, want)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for b := 0; b <= utf8.RuneSelf; b++ { // every ASCII byte (controls, " \ < > &, DEL) and 0x80
		f.Add(string([]byte{'a', byte(b), 'z'}))
	}
	for _, s := range []string{
		"", "plain", "\u2028", "\u2029", "a\u2028b\u2029c", "\u2027\u202a", // neighbours of the separators
		"\xed\xa0\x80", "\xed\xbf\xbf", "\xed\xa0\x80\xed\xb0\x80", // lone and paired surrogates, UTF-8 encoded
		"\xc3", "\xe2\x82", "\xf0\x9f\x98", "x\xe2\x80", "\xe2\x80\xa8"[:2] + "\xa9", // truncated sequences
		"\xff", "\xc0\x80", "\xf8\x88\x80\x80\x80", // never-valid bytes, overlong, 5-byte form
		"😀", "a😀b\U0010ffff", "\ufffd", "héllo 世界",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { sameAsMarshal(t, s) })
}

// FuzzAppendJSONString and TestAppendJSONStringMatchesMarshal hold the
// escaper in every use the server makes of it — column names, values and
// the error member — to json.Marshal; internal/dict fuzzes the escaper and
// the rendered table themselves.

// TestAppendJSONStringMatchesMarshal is the seeded property: 20 000 strings
// drawn from an alphabet dense in everything the encoder treats specially.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	pieces := []string{
		"a", "Z", "0", " ", "http://example.org/x#", `"`, `\`, "<", ">", "&", "/", "'",
		"\x00", "\x07", "\b", "\t", "\n", "\v", "\f", "\r", "\x1b", "\x1f", "\x7f",
		"é", "世", "\u2027", "\u2028", "\u2029", "\ufffd", "😀", "\U0010ffff",
		"\x80", "\xbf", "\xc3", "\xe2\x80", "\xf0\x9f", "\xed\xa0\x80", "\xff",
	}
	rng := rand.New(rand.NewSource(24))
	var sb []byte
	for i := 0; i < 20000; i++ {
		sb = sb[:0]
		for n := rng.Intn(12); n > 0; n-- {
			sb = append(sb, pieces[rng.Intn(len(pieces))]...)
		}
		sameAsMarshal(t, string(sb))
	}
}

// countingRW is a ResponseWriter that discards the body and counts what the
// handler did to it.
type countingRW struct {
	h       http.Header
	status  int
	writes  int
	flushes int
	bytes   int
}

func (w *countingRW) Header() http.Header  { return w.h }
func (w *countingRW) WriteHeader(code int) { w.status = code }
func (w *countingRW) Flush()               { w.flushes++ }
func (w *countingRW) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestServerWriteResultsAllocsIndependentOfRows: a request's allocations do not
// depend on how many rows it answers — nothing is allocated per binding (the
// per-binding json.Marshal made two) or per slab.
func TestServerWriteResultsAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		h := fixtureServer(t, newFixtureStream(n)).Handler()
		req := httptest.NewRequest(http.MethodGet, "/sparql?query=q", nil)
		w := &countingRW{h: http.Header{}}
		return testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
	}
	few, many := allocs(10), allocs(10000)
	if few != many {
		t.Fatalf("allocations per request: %v at 10 rows, %v at 10000 — something allocates per row or per slab", few, many)
	}
}

// TestOneSlabAnswerIsOneWrite pins what is written when. An answer of one
// slab leaves in a single write and, being under net/http's pre-chunking
// buffer, arrives with Content-Length and no chunk framing; a three-slab one
// is written and flushed slab by slab (the last slab together with the tail)
// and arrives chunked. Neither document changes.
func TestOneSlabAnswerIsOneWrite(t *testing.T) {
	serve := func(n int) *countingRW {
		w := &countingRW{h: http.Header{}}
		fixtureServer(t, newFixtureStream(n)).Handler().ServeHTTP(w,
			httptest.NewRequest(http.MethodGet, "/sparql?query=q", nil))
		return w
	}
	if w := serve(2); w.writes != 1 || w.flushes != 0 {
		t.Fatalf("two rows: %d writes, %d flushes; want 1 and 0", w.writes, w.flushes)
	}
	if w := serve(3 * fixtureSlab); w.writes != 3 || w.flushes != 2 {
		t.Fatalf("three slabs: %d writes, %d flushes; want 3 and 2", w.writes, w.flushes)
	}

	resp, body := fetchFixture(t, 2)
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("two rows: Content-Length %d, Transfer-Encoding %v; want %d and none",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	resp, long := fetchFixture(t, 3*fixtureSlab)
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("three slabs: Content-Length %d, Transfer-Encoding %v; want chunked",
			resp.ContentLength, resp.TransferEncoding)
	}
	for n, doc := range map[int][]byte{2: body, 3 * fixtureSlab: long} {
		if want := marshalDocument(newFixtureStream(n)); !bytes.Equal(doc, want) {
			t.Fatalf("document of %d rows is not what encoding/json writes:\n got %.300s\nwant %.300s", n, doc, want)
		}
	}
}

// marshalDocument is the reference encoder: the result document assembled
// from json.Marshal of every name and value.
func marshalDocument(st *fixtureStream) []byte {
	var doc bytes.Buffer
	vars, _ := json.Marshal(st.Columns())
	fmt.Fprintf(&doc, `{"head":{"vars":%s},"results":{"bindings":[`, vars)
	for i, row := range st.rows {
		if i > 0 {
			doc.WriteByte(',')
		}
		doc.WriteByte('{')
		for c, v := range row {
			if c > 0 {
				doc.WriteByte(',')
			}
			name, _ := json.Marshal(st.Columns()[c])
			val, _ := json.Marshal(v)
			fmt.Fprintf(&doc, `%s:{"type":"literal","value":%s}`, name, val)
		}
		doc.WriteByte('}')
	}
	doc.WriteString("]}}")
	return doc.Bytes()
}
