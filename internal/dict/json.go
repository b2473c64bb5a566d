package dict

import (
	"math"
	"strconv"
	"unicode/utf8"

	"rdfviews/internal/rdf"
)

// SPARQL-JSON rendering of dictionary terms: the one decode rule every
// answer follows (Render), the one JSON string escaper (AppendJSONString),
// and the table that holds each term's escaped string literal once, so the
// serving tier appends an answer from its IDs without rendering or escaping
// a value per binding (Literals).

// Render is the one decode rule every answer follows: an IRI shortened by
// rdf.ShortenIRI, a literal's or blank node's value raw, and an ID that the
// Terms() view does not hold as ?id.
func Render(terms []rdf.Term, id ID) string {
	if id < 1 || id > ID(len(terms)) {
		return "?" + strconv.FormatInt(int64(id), 10)
	}
	t := terms[id-1]
	if t.Kind == rdf.IRI {
		return rdf.ShortenIRI(t.Value)
	}
	return t.Value
}

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

// AppendJSONString appends s as a JSON string literal, byte for byte what
// json.Marshal(s) returns: < > & and U+2028/U+2029 escaped, invalid UTF-8
// replaced by \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
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

// The table is stored in fixed-size chunks, so it grows without copying and
// holds no doubling slack: at most one partly filled chunk of each kind.
const (
	litChunk = 4 << 10 // bytes of rendered literals per chunk
	endChunk = 1 << 10 // end offsets per chunk
)

// Literals is one published state of a dictionary's rendered table: the
// SPARQL-JSON string literal of Render(id), quotes included, for each of IDs
// 1..n. Each ID has one end offset into the table's bytes. A literal that is
// just its term's value in quotes — most are — is not copied: its entry is
// empty and the value is quoted from the dictionary's own bytes. So a served
// table costs 4 bytes a term, plus len+2 for each term that escaping or
// shortening changes. A state never changes once published; the next one
// shares its chunks and writes only past its end, so readers take no lock.
// A state keeps alive the Terms() view it was built from.
type Literals struct {
	d     *Dictionary
	terms []rdf.Term // the Terms() view IDs 1..n were rendered from
	n     int        // IDs 1..n are rendered
	size  uint32     // bytes held, where ID n's entry ends
	full  bool       // the next literal would pass 4 GiB: the table stops at n
	ends  [][]uint32 // ID i's entry ends at offset ends[(i-1)/endChunk][(i-1)%endChunk]
	bytes [][]byte   // table offset o is bytes[o/litChunk][o%litChunk]
}

// Literals returns the rendered table, first rendering whatever terms were
// added since it was last asked for. The table is built the first time it
// is asked for, so a dictionary that is never served holds none.
func (d *Dictionary) Literals() *Literals {
	n := d.Len()
	if l := d.lits.Load(); l != nil && (l.n >= n || l.full) {
		return l
	}
	d.litMu.Lock()
	defer d.litMu.Unlock()
	l := d.lits.Load()
	if l == nil {
		l = &Literals{d: d}
	}
	if terms := d.Terms(); l.n < len(terms) && !l.full {
		l = l.extend(terms)
	}
	d.lits.Store(l)
	return l
}

// extend returns the state that also renders terms past l.n.
func (l *Literals) extend(terms []rdf.Term) *Literals {
	nl := *l
	nl.terms = terms
	var lit []byte
	for ; nl.n < len(terms); nl.n++ {
		v := Render(terms, ID(nl.n+1))
		lit = AppendJSONString(lit[:0], v)
		if v != terms[nl.n].Value || len(lit) != len(v)+2 {
			if uint64(nl.size)+uint64(len(lit)) > math.MaxUint32 {
				nl.full = true
				break
			}
			for rest := lit; len(rest) > 0; {
				c, o := nl.size/litChunk, nl.size%litChunk
				if int(c) == len(nl.bytes) {
					nl.bytes = append(nl.bytes, make([]byte, litChunk))
				}
				k := copy(nl.bytes[c][o:], rest)
				rest, nl.size = rest[k:], nl.size+uint32(k)
			}
		}
		i := uint(nl.n)
		if i%endChunk == 0 {
			nl.ends = append(nl.ends, make([]uint32, endChunk))
		}
		nl.ends[i/endChunk][i%endChunk] = nl.size
	}
	return &nl
}

// end is where ID i+1's entry ends.
func (l *Literals) end(i uint) uint32 { return l.ends[i/endChunk][i%endChunk] }

// literal appends id's literal to dst. An ID past this state is looked up in
// the dictionary's current table, and one that is not there either (an ID
// never assigned, or past a full table) is rendered and escaped on the fly.
func (l *Literals) literal(dst []byte, id ID) []byte {
	if id < 1 || id > ID(l.n) {
		if cur := l.d.Literals(); id >= 1 && id <= ID(cur.n) {
			return cur.literal(dst, id)
		}
		return AppendJSONString(dst, Render(l.d.Terms(), id))
	}
	i := uint(id - 1)
	var start uint32
	if i > 0 {
		start = l.end(i - 1)
	}
	end := l.end(i)
	if start == end {
		dst = append(dst, '"')
		dst = append(dst, l.terms[i].Value...)
		return append(dst, '"')
	}
	for start < end {
		c, o := start/litChunk, start%litChunk
		piece := l.bytes[c][o:min(litChunk, o+end-start)]
		dst = append(dst, piece...)
		start += uint32(len(piece))
	}
	return dst
}

// AppendRows appends rows of IDs as SPARQL-JSON bindings from l: a comma
// before each row (before the first too when comma is set), then seps[i]
// before column i's literal, and end after the row's last.
func AppendRows[R ~[]ID](l *Literals, dst []byte, comma bool, rows []R, seps [][]byte, end []byte) []byte {
	for _, row := range rows {
		if comma {
			dst = append(dst, ',')
		}
		comma = true
		for i, id := range row {
			dst = append(dst, seps[i]...)
			dst = l.literal(dst, id)
		}
		dst = append(dst, end...)
	}
	return dst
}
