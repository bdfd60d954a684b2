package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	blogclusters "repro"
)

// FuzzQueryRoundTrip holds every table entry to its declaration: on any
// query string, parse either fails, which the serve path answers with
// 400, or yields a request whose rendering parses back to the same
// request and the same cache key, so what a Client sends is what the
// server keys.
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
	} {
		f.Add(seed)
	}
	srv := New(quietConfig(nil)) // no session: a parsed request is a 503
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw)
		for _, e := range queries {
			switch o := e.(type) {
			case *op[blogclusters.QuerySpec]:
				roundTrip(t, srv, o, v)
			case *op[term]:
				roundTrip(t, srv, o, v)
			case *op[searchReq]:
				roundTrip(t, srv, o, v)
			case *op[keywordAt]:
				roundTrip(t, srv, o, v)
			case *op[blogclusters.Path]:
				roundTrip(t, srv, o, v)
			case *op[struct{}]:
				roundTrip(t, srv, o, v)
			case *op[clustersReq]:
				roundTrip(t, srv, o, v)
			default:
				t.Fatalf("no round-trip check for %T", e)
			}
		}
	})
}

func roundTrip[Q any](t *testing.T, srv *Server, o *op[Q], v url.Values) {
	t.Helper()
	q, err := o.parse(v)
	w := httptest.NewRecorder()
	o.serve(srv, w, httptest.NewRequest(http.MethodGet, "/v1/"+o.name+"?"+v.Encode(), nil))
	want := http.StatusServiceUnavailable
	if err != nil {
		want = http.StatusBadRequest
	}
	if w.Code != want {
		t.Fatalf("%s?%s: parse error %v, served %d, want %d", o.name, v.Encode(), err, w.Code, want)
	}
	if err != nil {
		return
	}
	wire := o.query(q)
	v2, err := url.ParseQuery(wire)
	if err != nil {
		t.Fatalf("%s: rendering %q does not parse: %v", o.name, wire, err)
	}
	q2, err := o.parse(v2)
	if err != nil {
		t.Fatalf("%s: rendering %q of %q fails to parse: %v", o.name, wire, v.Encode(), err)
	}
	if !reflect.DeepEqual(q2, q) {
		t.Fatalf("%s: %q parses to %#v, rendered %q parses to %#v", o.name, v.Encode(), q, wire, q2)
	}
	if k, k2 := o.key(3, q), o.key(3, q2); k != k2 {
		t.Fatalf("%s: key %q, round-tripped key %q", o.name, k, k2)
	}
}
