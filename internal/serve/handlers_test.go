package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// TestHandlerParsesQueryOnce pins that a /run request parses its query
// string once. Query parameters the handler ignores cost what one
// url.ParseQuery spends on them; a handler that re-parsed the query
// for every parameter it reads would pay that once per read.
func TestHandlerParsesQueryOnce(t *testing.T) {
	s := newTestServer(t, Config{Model: "cilk_for", Threads: 2, WorkSize: 4096})
	const query = "kernel=sum&n=4096&rows=8&timeout_ms=60000"
	var pad strings.Builder
	for i := 0; i < 16; i++ {
		pad.WriteString("&pad")
		pad.WriteByte(byte('a' + i))
		pad.WriteString("=x")
	}
	padded := query + pad.String()

	serve := func(q string) func() {
		req := httptest.NewRequest(http.MethodGet, "/run?"+q, nil)
		return func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /run?%s = %d: %s", q, rec.Code, rec.Body)
			}
		}
	}
	parse := func(q string) func() {
		return func() { _, _ = url.ParseQuery(q) }
	}
	allocs := func(fn func()) float64 {
		for i := 0; i < 50; i++ {
			fn()
		}
		return testing.AllocsPerRun(200, fn)
	}

	perParse := allocs(parse(padded)) - allocs(parse(query))
	extra := allocs(serve(padded)) - allocs(serve(query))
	if perParse < 8 {
		t.Fatalf("fixture too weak: the padding costs %v allocations per parse", perParse)
	}
	if extra > perParse+2 {
		t.Fatalf("ignored parameters cost the handler %v allocations, %v per parse: the query is parsed %.1f times",
			extra, perParse, extra/perParse)
	}
}
