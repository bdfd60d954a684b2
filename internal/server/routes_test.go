package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	blogclusters "repro"
)

// TestRouteBodiesPinned pins the exact bytes of every /v1 route's
// success body on the seeded demo news week, by SHA-256: every
// stable-clusters variant and solver, the empty-result shapes (which
// must render [] and not null), the coordinator's exchange routes and a
// push. A change that alters a field name, field order, number
// formatting or an empty-slice rendering fails here.
//
// Each stable-clusters row also pins its answer alone: paths is the
// SHA-256 of the body with "stats" removed (keys re-encoded in sorted
// order). A change to a solver's counted work moves sum and leaves
// paths; a change to the answer moves both.
func TestRouteBodiesPinned(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))
	cases := []struct{ method, path, body, sum, paths string }{
		{"GET", "/v1/stable-clusters", "", "e019c3fb110947d1e1b3b5b9c1851420d8d4eabaad2953ff21ba2455652476dc", "c0e23dd649109ea44e3f80bf85b4ee3266aa050fbe5c2da513b65c9fc234d179"},
		{"GET", "/v1/stable-clusters?k=3&l=2", "", "541db706ac37e2a026ff504dde0335e92c4bfc99dc73d4e5c440fdba7d34d670", "b8a5fdc1a4c5b40e624876fa9a658701ef8be78f999cb55eb0223cb3cc58c190"},
		{"GET", "/v1/stable-clusters?k=4&l=3&algorithm=bfs", "", "dc7567733fc17b78fc13fc8cc0a4c7e541f599d39b37301a516c572eccf86f9d", "82bcaaefa167a92c2aa3b66af7ccb8e744dcd979599525b51a832d7d2ab996bf"},
		{"GET", "/v1/stable-clusters?k=4&l=3&algorithm=dfs", "", "0328d80f11d617d22737700c0fe8d035188b3400385db222ac08f85a3b12d632", "82bcaaefa167a92c2aa3b66af7ccb8e744dcd979599525b51a832d7d2ab996bf"},
		{"GET", "/v1/stable-clusters?k=4&l=3&algorithm=brute", "", "a0e209e782139d11107c83fb74385b97b1c32d7f1233affaeab07018f629d6db", "82bcaaefa167a92c2aa3b66af7ccb8e744dcd979599525b51a832d7d2ab996bf"},
		{"GET", "/v1/stable-clusters?k=4&algorithm=ta", "", "d85dd8c5a3e294fad94b211be2f8e1cf80bbe3b881f14c573636171984c37d86", "9c020148e4e6549e5708c30672aa69e02060eccf1697196f0a27f188b2caf857"},
		{"GET", "/v1/stable-clusters?variant=normalized&k=4&lmin=2", "", "57c2d52a748df56a3c9b05d85f01c61ff262a766845af54458d037233deaed76", "10bc91072d76b3aaaf5f8a5b6faa9e1b16917925ecd942aab7a65f1d25be1444"},
		{"GET", "/v1/stable-clusters?variant=normalized&k=3&lmin=3&algorithm=brute-normalized", "", "dda3497268662ca86e0a6ace463f765773def6f1c54a9cda477a09797c096afa", "afa086844750da398e897dff8669e08616bda656856f10718cb6834b33ed866a"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=endpoints", "", "e2daf5d4fb01b0ff4fbb06216046f5e2a5bd5bc752c20f5abaf83545325f97b9", "d1b94de5112d34d4295ed031024ef87f19e7947c7e02ab9ac2227f180527f922"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=prefix", "", "7dff36337e4f0bf77b5bade64788c4a356d47c9ad72a0cafcd0614774c358463", "e38d422bb4c101f3aac541c1a6d4993e49cf029149cbaee3652a2fa72b509404"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=suffix", "", "7dff36337e4f0bf77b5bade64788c4a356d47c9ad72a0cafcd0614774c358463", "e38d422bb4c101f3aac541c1a6d4993e49cf029149cbaee3652a2fa72b509404"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=disjoint", "", "76a3e4b964a193dd36f5690de3b00689f4bba5d77981b2e7b9016da1912fe001", "3fe81611933094cad9ec7ffbd1a2f8269bb11213058694befc015cb3d592b8ee"},
		{"GET", "/v1/stable-clusters?k=2&l=6", "", "b262e1ce8fb59cf317d9899c5762de341e7c0abea51cc7f7329f680540422ec2", "a8b5ab2b35b6350c960c0a42cba96fd6d94cf7c934cdfd042f393d3b24591973"},
		{"GET", "/v1/timeseries?keyword=somalia", "", "930ec982ca3a74dd1fd4cd04155602aa27f71bfbe078c68e6afda7a6435d37ff", ""},
		{"GET", "/v1/timeseries?keyword=zzzunseen", "", "ece325c0fb9573b9af4d7b7e1fda040a362d6461f19d3861e47bf2175fcae75a", ""},
		{"GET", "/v1/bursts?keyword=somalia", "", "f843b9235e711ed53ff46e7259c1f3af491b2378809dfe27e64d37bfb18ebf76", ""},
		{"GET", "/v1/bursts?keyword=zzzunseen", "", "6762e36eec4304c793538ebcef938d8ec8017b4ea60aa64cfcda12ce37cec93d", ""},
		{"GET", "/v1/search?terms=somalia&interval=0", "", "655f0c44eef50941c4cb9fa9f39ccc8258026815dccd2a2c09f57effa4c24ed2", ""},
		{"GET", "/v1/search?terms=somalia,mogadishu&interval=3", "", "cef0d500baa33592ab53d1e0a45839d89903f1258aeabc2ea1163a670630b07f", ""},
		{"GET", "/v1/search?terms=zzzunseen&interval=1", "", "54fd637c3a70abc081ff57f8236cf306be0bbb107d14ee78f0fff056bedcbd7a", ""},
		{"GET", "/v1/refine?query=somalia&interval=0", "", "70b1b884115dadde28891a691c2df5f8722cc39012ab63a1cbbf6ff1da6d734e", ""},
		{"GET", "/v1/refine?query=zzzunseen&interval=2", "", "2b3260ef3a0d7c3eceab23f0453ef8bd0807644e0ac0aa4157a843cb332c79a5", ""},
		{"GET", "/v1/correlations?keyword=somalia&interval=0&n=3", "", "7a24568fe1a824a3312b2954b5634dfc9ba18054464552a6e7b57bc96d26656e", ""},
		{"GET", "/v1/correlations?keyword=zzzunseen&interval=0", "", "a4a047186e328bff4e060268b78104a2ecc55aecd433731d7bc0c41ef3a60b95", ""},
		{"GET", "/v1/describe?nodes=0,1&weight=0.5&length=1", "", "4a94718a7da1327712205a1c64731fbe0320b888a6fb65317cbd415beaea485e", ""},
		{"GET", "/v1/meta", "", "b4083bf70cf3264197715130800b1a21f75649df1a8814f94b20496de57966b5", ""},
		{"GET", "/v1/clusters?from=0&to=7", "", "71ef4c3e39aa20fa64b411fea195cbc53c71958d061e59cf1f4b78a965ece155", ""},
		{"GET", "/v1/clusters?from=2&to=5&counts=1", "", "593e41f3b5cb8b49f619bee0799576e9759e768aef4ed6bf9ab9ef371e6a3cab", ""},
		{"POST", "/v1/push", `{"interval":7,"label":"pushed","docs":[{"id":900001,"keywords":["somalia","mogadishu"]},{"id":900002,"keywords":["somalia"]}]}`, "af39aee33d04c817e1123cc29a9c9912f26dcf454d8953cb36cc9d7f0d68f1b2", ""},
		{"GET", "/v1/stable-clusters?k=3&l=2", "", "623b95e54c9a33a8e1dff605e5df28520960fb191745c82e1bc5f803a7408499", "779d76b6b3b8a30a15cf5ecb516e0fb044ecc70745f562af0756ed4ebc82f90b"},
		{"GET", "/v1/meta", "", "dc2aac4b54b7ef9c0aec2099fae762600efe65c9eeeb07865e674864ec0e57aa", ""},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: read body: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", tc.method, tc.path, resp.StatusCode, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("%s %s: body sha256 %s, pinned %s\n%s", tc.method, tc.path, got, tc.sum, body)
		}
		if tc.paths == "" {
			continue
		}
		if got := pathsOnlySum(t, body); got != tc.paths {
			t.Errorf("%s %s: paths-only sha256 %s, pinned %s\n%s", tc.method, tc.path, got, tc.paths, body)
		}
	}
}

// pathsOnlySum returns the SHA-256 of a stable-clusters body with its
// "stats" member removed and the rest re-encoded with sorted keys.
func pathsOnlySum(t *testing.T, body []byte) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("decode stable-clusters body: %v", err)
	}
	if _, ok := fields["stats"]; !ok {
		t.Fatalf("stable-clusters body has no stats: %s", body)
	}
	delete(fields, "stats")
	rest, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(rest)
	return hex.EncodeToString(sum[:])
}

// TestClustersRouteLeavesMemoIntact checks /v1/clusters renders an
// interval with no clusters as [] without writing into the Engine's
// memoized cluster sets, which the route shares with every other
// reader of the session.
func TestClustersRouteLeavesMemoIntact(t *testing.T) {
	sets := [][]blogclusters.Cluster{
		{{ID: 0, Interval: 0, Keywords: []string{"alpha", "beta"}}},
		nil,
		{{ID: 1, Interval: 2, Keywords: []string{"alpha", "beta"}}},
	}
	eng, err := blogclusters.Open(t.Context(), blogclusters.FromClusterSets(sets))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Clusters(t.Context()); err != nil {
		t.Fatal(err)
	}
	srv := New(quietConfig(nil))
	srv.SetEngine(eng)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, body := get(t, ts, "/v1/clusters?from=0&to=3")
	wantStatus(t, resp, body, http.StatusOK)
	if mid, ok := body["sets"].([]any)[1].([]any); !ok || len(mid) != 0 {
		t.Errorf("empty interval rendered as %v, want []", body["sets"].([]any)[1])
	}
	got, err := eng.Clusters(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != nil {
		t.Errorf("GET /v1/clusters rewrote the memoized empty interval to %#v", got[1])
	}
}
