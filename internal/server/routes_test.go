package server

import (
	"crypto/sha256"
	"encoding/hex"
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
func TestRouteBodiesPinned(t *testing.T) {
	_, _, ts := newTestServer(t, quietConfig(nil))
	cases := []struct{ method, path, body, sum string }{
		{"GET", "/v1/stable-clusters", "", "f59931a701d9f2e7fb08d03bd91ab5c5d1a054de5d2564f1ce7c9f681a26bedd"},
		{"GET", "/v1/stable-clusters?k=3&l=2", "", "7baa82700f6e59668494f97ccc26c37bb8225e5306b8048add2257e5154d4849"},
		{"GET", "/v1/stable-clusters?k=4&l=3&algorithm=bfs", "", "dd198dd1598ea7efc0ec1c249ef5d34f9a45a350a55023a6e6f242ae7734e8d4"},
		{"GET", "/v1/stable-clusters?k=4&l=3&algorithm=dfs", "", "33110c3933de9b8e43285812eda6dd5506db7cb6351da80c401d26d3f1f6e17e"},
		{"GET", "/v1/stable-clusters?k=4&l=3&algorithm=brute", "", "a0e209e782139d11107c83fb74385b97b1c32d7f1233affaeab07018f629d6db"},
		{"GET", "/v1/stable-clusters?k=4&algorithm=ta", "", "fcd77da23cd193c29888ade88eb8c18a26b502a0b602cde5e0cb8fc7a9398d31"},
		{"GET", "/v1/stable-clusters?variant=normalized&k=4&lmin=2", "", "e5b51ef1d46344d32e2d3a669b5c1f5a40ad5eec06cd35139427ee5bb4d87b28"},
		{"GET", "/v1/stable-clusters?variant=normalized&k=3&lmin=3&algorithm=brute-normalized", "", "dda3497268662ca86e0a6ace463f765773def6f1c54a9cda477a09797c096afa"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=endpoints", "", "ea9b0dfcd84345b6aec4453f6fe2d4949d26a62fff8f6cb62b214856725b8a09"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=prefix", "", "68679bfef5947b913147219393e5534979f1ea54e82a060f09d8a5bc98812ec9"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=suffix", "", "68679bfef5947b913147219393e5534979f1ea54e82a060f09d8a5bc98812ec9"},
		{"GET", "/v1/stable-clusters?variant=diverse&k=3&l=2&mode=disjoint", "", "9bbacb1a4f357dd9487aa59bb18791bb79ac999fe49615ce02daaa58962fb5ff"},
		{"GET", "/v1/stable-clusters?k=2&l=6", "", "5b0e7b6089f9693b79899aabce7e2a3045c609e30f6fa52b9aab54be19d6730f"},
		{"GET", "/v1/timeseries?keyword=somalia", "", "930ec982ca3a74dd1fd4cd04155602aa27f71bfbe078c68e6afda7a6435d37ff"},
		{"GET", "/v1/timeseries?keyword=zzzunseen", "", "ece325c0fb9573b9af4d7b7e1fda040a362d6461f19d3861e47bf2175fcae75a"},
		{"GET", "/v1/bursts?keyword=somalia", "", "f843b9235e711ed53ff46e7259c1f3af491b2378809dfe27e64d37bfb18ebf76"},
		{"GET", "/v1/bursts?keyword=zzzunseen", "", "6762e36eec4304c793538ebcef938d8ec8017b4ea60aa64cfcda12ce37cec93d"},
		{"GET", "/v1/search?terms=somalia&interval=0", "", "655f0c44eef50941c4cb9fa9f39ccc8258026815dccd2a2c09f57effa4c24ed2"},
		{"GET", "/v1/search?terms=somalia,mogadishu&interval=3", "", "cef0d500baa33592ab53d1e0a45839d89903f1258aeabc2ea1163a670630b07f"},
		{"GET", "/v1/search?terms=zzzunseen&interval=1", "", "54fd637c3a70abc081ff57f8236cf306be0bbb107d14ee78f0fff056bedcbd7a"},
		{"GET", "/v1/refine?query=somalia&interval=0", "", "70b1b884115dadde28891a691c2df5f8722cc39012ab63a1cbbf6ff1da6d734e"},
		{"GET", "/v1/refine?query=zzzunseen&interval=2", "", "2b3260ef3a0d7c3eceab23f0453ef8bd0807644e0ac0aa4157a843cb332c79a5"},
		{"GET", "/v1/correlations?keyword=somalia&interval=0&n=3", "", "7a24568fe1a824a3312b2954b5634dfc9ba18054464552a6e7b57bc96d26656e"},
		{"GET", "/v1/correlations?keyword=zzzunseen&interval=0", "", "a4a047186e328bff4e060268b78104a2ecc55aecd433731d7bc0c41ef3a60b95"},
		{"GET", "/v1/describe?nodes=0,1&weight=0.5&length=1", "", "4a94718a7da1327712205a1c64731fbe0320b888a6fb65317cbd415beaea485e"},
		{"GET", "/v1/meta", "", "b4083bf70cf3264197715130800b1a21f75649df1a8814f94b20496de57966b5"},
		{"GET", "/v1/clusters?from=0&to=7", "", "71ef4c3e39aa20fa64b411fea195cbc53c71958d061e59cf1f4b78a965ece155"},
		{"GET", "/v1/clusters?from=2&to=5&counts=1", "", "593e41f3b5cb8b49f619bee0799576e9759e768aef4ed6bf9ab9ef371e6a3cab"},
		{"POST", "/v1/push", `{"interval":7,"label":"pushed","docs":[{"id":900001,"keywords":["somalia","mogadishu"]},{"id":900002,"keywords":["somalia"]}]}`, "af39aee33d04c817e1123cc29a9c9912f26dcf454d8953cb36cc9d7f0d68f1b2"},
		{"GET", "/v1/stable-clusters?k=3&l=2", "", "6580e5743061b416db35b8f2649539aa117e27d9322ea17fb05ef9f460c3b34f"},
		{"GET", "/v1/meta", "", "dc2aac4b54b7ef9c0aec2099fae762600efe65c9eeeb07865e674864ec0e57aa"},
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
	}
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
