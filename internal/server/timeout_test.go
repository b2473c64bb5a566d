package server

import (
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// TestTimeoutFor checks the timeout parameter: a Go duration or a bare
// number of seconds, capped at MaxTimeout however large (past about 292
// years either overflows a Duration), defaulting to
// DefaultTimeout, and rejected when not positive or not a number.
func TestTimeoutFor(t *testing.T) {
	s := &Server{cfg: Config{DefaultTimeout: 30 * time.Second, MaxTimeout: 2 * time.Minute}}
	for _, c := range []struct {
		raw  string
		want time.Duration // 0: the request is rejected
	}{
		{"", 30 * time.Second},
		{"500ms", 500 * time.Millisecond},
		{"2", 2 * time.Second},
		{"0", 0},
		{"-1", 0},
		{"abc", 0},
		{"10m", 2 * time.Minute},
		{"1e10", 2 * time.Minute},
		{"Inf", 2 * time.Minute},
		{"1e400", 2 * time.Minute}, // past float64: ParseFloat returns +Inf with ErrRange
		{"NaN", 0},
		{"2562047h", 2 * time.Minute},      // the largest whole hours a Duration holds
		{"3000000h", 2 * time.Minute},      // past the Duration range: ParseDuration calls it invalid
		{"300000000000s", 2 * time.Minute}, // the same in seconds
		{"1h3000000h", 2 * time.Minute},
		{"-3000000h", 0},
		{"+-3000000h", 0},
		{"3000000hx", 0},
		{"3000000", 2 * time.Minute},
	} {
		r := httptest.NewRequest("GET", "/sparql?timeout="+url.QueryEscape(c.raw), nil)
		got, err := s.timeoutFor(r)
		if c.want == 0 {
			if err == nil {
				t.Errorf("timeout=%q: got %v, want an error", c.raw, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("timeout=%q: got %v, %v; want %v", c.raw, got, err, c.want)
		}
	}
}
