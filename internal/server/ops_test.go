package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	blogclusters "repro"
)

// paramNames is every query parameter a table entry or serve reads.
var paramNames = []string{
	"variant", "algorithm", "k", "l", "lmin", "mode", "keyword", "terms",
	"interval", "query", "n", "nodes", "weight", "length", "from", "to",
	"counts", "trace",
}

// FuzzQueryRoundTrip holds every table entry to its declaration: on any
// raw query string, parse either fails, which the serve path answers
// with 400, or yields a request whose rendering parses back to the same
// request and the same cache key, so what a Client sends is what the
// server keys. It also holds the in-place reader to url.ParseQuery for
// every parameter the table reads.
func FuzzQueryRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"",
		"variant=normalized&k=4&lmin=3&algorithm=brute-normalized",
		"variant=diverse&k=3&l=-7&mode=distinct-prefix",
		"k=05&l=2&algorithm=dfs&trace=1",
		"keyword=Somalia&query=agreed&interval=2&n=3",
		"terms=election,+somalia,,%C3%A9t%C3%A9&interval=1",
		"nodes=1,%205,-9&weight=0.50&length=2",
		"nodes=0&weight=-0&from=0&to=7&counts=1",
		"keyword=the&k=x&weight=NaN&nodes=1e5",
		"keyword=a;b&keyword=somalia&interval=1;2&interval=3",
		"keyword=%zz&keyword=somalia&k%zz=1&k=2&interval=%4",
		"keyword=new+york&terms=a+b,c&query=+somalia+",
		"k=3&k=4&k=&interval=&interval=2&keyword",
		"ke%79word=somalia&%6B=2&inter%76al=1&k%3D=9",
		"&&=&keyword==somalia&interval=0=1",
	} {
		f.Add(seed)
	}
	srv := New(quietConfig(nil)) // no session: a parsed request is a 503
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		for _, name := range paramNames {
			if got := params(raw).Get(name); got != want.Get(name) {
				t.Fatalf("params(%q).Get(%q) = %q, url.ParseQuery gives %q", raw, name, got, want.Get(name))
			}
		}
		for _, e := range queries {
			switch o := e.(type) {
			case *op[blogclusters.QuerySpec]:
				roundTrip(t, srv, o, raw)
			case *op[term]:
				roundTrip(t, srv, o, raw)
			case *op[searchReq]:
				roundTrip(t, srv, o, raw)
			case *op[keywordAt]:
				roundTrip(t, srv, o, raw)
			case *op[blogclusters.Path]:
				roundTrip(t, srv, o, raw)
			case *op[struct{}]:
				roundTrip(t, srv, o, raw)
			case *op[clustersReq]:
				roundTrip(t, srv, o, raw)
			default:
				t.Fatalf("no round-trip check for %T", e)
			}
		}
	})
}

func roundTrip[Q any](t *testing.T, srv *Server, o *op[Q], raw string) {
	t.Helper()
	q, err := o.parse(params(raw))
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/v1/"+o.name, nil)
	r.URL.RawQuery = raw
	o.serve(srv, &outcome{ResponseWriter: w}, r)
	want := http.StatusServiceUnavailable
	if err != nil {
		want = http.StatusBadRequest
	}
	if w.Code != want {
		t.Fatalf("%s?%s: parse error %v, served %d, want %d", o.name, raw, err, w.Code, want)
	}
	if err != nil {
		return
	}
	wire := o.query(q)
	if _, err := url.ParseQuery(wire); err != nil {
		t.Fatalf("%s: rendering %q does not parse: %v", o.name, wire, err)
	}
	q2, err := o.parse(params(wire))
	if err != nil {
		t.Fatalf("%s: rendering %q of %q fails to parse: %v", o.name, wire, raw, err)
	}
	if !reflect.DeepEqual(q2, q) {
		t.Fatalf("%s: %q parses to %#v, rendered %q parses to %#v", o.name, raw, q, wire, q2)
	}
	if k, k2 := keyOf(o, 3, q), keyOf(o, 3, q2); k != k2 {
		t.Fatalf("%s: key %q, round-tripped key %q", o.name, k, k2)
	}
}

// keyOf renders q's cache key at generation gen as a string.
func keyOf[Q any](o *op[Q], gen int64, q Q) string {
	var e enc
	o.renderKey(&e, gen, q)
	return string(e.b)
}
