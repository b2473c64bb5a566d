package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"rdfviews/internal/dict"
	"rdfviews/internal/rdf"
)

// fixtureSlab is the slab size of the canned streams below; the engine's
// streams hand out batches of about this many rows.
const fixtureSlab = 1024

// awkward are values that exercise every branch of the string encoder.
var awkward = []string{
	"plain",
	`quote"d`,
	`back\slash`,
	"<b>&amp;</b>",
	"line\nbreak\ttab\rreturn",
	"\u2028sep\u2029",
	"\x00\x01\x1f\x7f",
	"bad\xff\xc0utf\xe2\x82",
	"héllo 世界 😀",
	"\b\f",
	"",
}

// fixtureCols has a column name that itself needs escaping.
var fixtureCols = []string{"s", "o\"<&>\u2028\n"}

// fixtureStream is a canned Stream of n rows in slabs of fixtureSlab, built
// once and rewound with reset; it serves its rows from IDs, as the library's
// streams do, every value a literal of a dictionary of its own. Next and
// AppendRows allocate nothing once the dictionary's table is rendered.
type fixtureStream struct {
	cols []string
	rows [][]string
	ids  [][]dict.ID // rows, as IDs of d
	d    *dict.Dictionary
	at   int
}

func newFixtureStream(n int) *fixtureStream {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("e%d", i), fmt.Sprintf("%s%d", awkward[i%len(awkward)], i)}
	}
	return newStringStream(fixtureCols, rows)
}

// newStringStream is a fixtureStream of the given columns and rows.
func newStringStream(cols []string, rows [][]string) *fixtureStream {
	st := &fixtureStream{cols: cols, rows: rows, ids: make([][]dict.ID, len(rows)), d: dict.New()}
	for i, row := range rows {
		for _, v := range row {
			st.ids[i] = append(st.ids[i], st.d.Encode(rdf.NewLiteral(v)))
		}
	}
	return st
}

func (s *fixtureStream) reset()            { s.at = 0 }
func (s *fixtureStream) Columns() []string { return s.cols }
func (s *fixtureStream) Close()            {}
func (s *fixtureStream) Next() ([][]string, error) {
	if s.at == len(s.rows) {
		return nil, nil
	}
	end := min(s.at+fixtureSlab, len(s.rows))
	slab := s.rows[s.at:end]
	s.at = end
	return slab, nil
}
func (s *fixtureStream) AppendRows(dst []byte, comma bool, seps [][]byte, end []byte) ([]byte, int, error) {
	from := s.at
	slab, _ := s.Next()
	return dict.AppendRows(s.d.Literals(), dst, comma, s.ids[from:from+len(slab)], seps, end), len(slab), nil
}

// fixtureServer serves the one stream to every query, rewound per request.
func fixtureServer(t testing.TB, st *fixtureStream) *Server {
	t.Helper()
	srv, err := New(Config{Backend: BackendFunc(func(context.Context, string) (Stream, error) {
		st.reset()
		return st, nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// fetchFixture answers one request over a real connection and returns the
// response with its (de-chunked) body.
func fetchFixture(t *testing.T, n int) (*http.Response, []byte) {
	t.Helper()
	hs := httptest.NewServer(fixtureServer(t, newFixtureStream(n)).Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/sparql?query=q")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return resp, body
}

// TestResultDocumentGolden holds the whole response document to the bytes the
// per-binding json.Marshal encoder wrote for the same streams: the files under
// testdata are fetchFixture's bodies at commit 7399eb2, gzipped. Row counts
// cover the empty answer, one row, exactly one slab, and two slabs and a part.
func TestResultDocumentGolden(t *testing.T) {
	for _, n := range []int{0, 1, 1024, 2500} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			f, err := os.Open(fmt.Sprintf("testdata/results_%d.json.gz", n))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			_, got := fetchFixture(t, n)
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("document of %d rows differs from the golden at byte %d (got %d bytes, want %d):\n got …%q\nwant …%q",
					n, i, len(got), len(want), got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
			}
		})
	}
}
