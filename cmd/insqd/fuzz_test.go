package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	insq "repro"
	"repro/internal/api"
	"repro/internal/server"
)

// FuzzJSONUpdate feeds arbitrary bodies and path ids to the JSON write
// routes: the object insert/remove handlers on both index sides and the
// two location-update batches. Whatever the input, the server must not
// panic, must answer no 5xx other than 503, and every non-2xx body must
// carry a code from the api error table. The seeds are the bodies the
// handler tests send, so a plain `go test` runs them. The engine keeps
// its state across inputs (a remove succeeds once, then reports
// unknown_object), so when fuzzing pass a short -fuzzminimizetime, e.g.
//
//	go test -run XXX -fuzz FuzzJSONUpdate -fuzzminimizetime 2s ./cmd/insqd
func FuzzJSONUpdate(f *testing.F) {
	e, err := insq.NewEngine(ingestConfig(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(server.New(e, server.Options{}).Handler())
	f.Cleanup(ts.Close)
	// A request that hangs fails the input instead of stalling the fuzzer.
	client := ts.Client()
	client.Timeout = 10 * time.Second
	// Sessions 1 (plane) and 2 (network) give update bodies live targets.
	if _, err := e.CreateSession(3, 1.6); err != nil {
		f.Fatal(err)
	}
	if _, err := e.CreateNetworkSession(2, 1.6); err != nil {
		f.Fatal(err)
	}

	routes := []struct{ method, path string }{
		{http.MethodPost, "/v1/objects"},
		{http.MethodPost, "/v1/network/objects"},
		{http.MethodDelete, "/v1/objects/"},
		{http.MethodDelete, "/v1/network/objects/"},
		{http.MethodPost, "/v1/update"},
		{http.MethodPost, "/v1/network/update"},
	}
	f.Add(uint8(0), "", []byte(`{"x":500,"y":500}`))
	f.Add(uint8(0), "", []byte(`{"x":-5000,"y":-5000}`))
	f.Add(uint8(0), "", []byte(`{`))
	f.Add(uint8(1), "", []byte(`{"vertex":3}`))
	f.Add(uint8(1), "", []byte(`{"vertex":64}`))
	f.Add(uint8(1), "", []byte(`{"vertex":-1}`))
	f.Add(uint8(2), "300", []byte(nil))
	f.Add(uint8(2), "99999", []byte(nil))
	f.Add(uint8(2), "notanumber", []byte(nil))
	f.Add(uint8(3), "3", []byte(nil))
	f.Add(uint8(3), "18446744073709551615", []byte(nil))
	f.Add(uint8(4), "", []byte(`{"updates":[{"session":1,"x":500,"y":500}]}`))
	f.Add(uint8(4), "", []byte(`{"updates":[{"session":12345,"x":1,"y":1},{"session":1,"x":1,"y":1}]}`))
	f.Add(uint8(5), "", []byte(`{"updates":[{"session":2,"u":3,"v":3}]}`))
	f.Add(uint8(5), "", []byte(`{"updates":[{"session":2,"u":0,"v":99,"t":-1}]}`))
	f.Fuzz(func(t *testing.T, route uint8, id string, body []byte) {
		r := routes[int(route)%len(routes)]
		target := ts.URL + r.path
		if r.method == http.MethodDelete {
			if id == "" || id == "." || id == ".." || strings.Contains(id, "/") {
				return // not one {id} segment: the mux answers, not the handler
			}
			target += url.PathEscape(id)
		}
		req, err := http.NewRequest(r.method, target, bytes.NewReader(body))
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode < 300 {
			return
		}
		if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d", r.method, target, resp.StatusCode)
		}
		var er api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s %s: status %d with undecodable body: %v", r.method, target, resp.StatusCode, err)
		}
		if api.CodeFromFrame(api.FrameCode(er.Code)) != er.Code {
			t.Fatalf("%s %s: status %d carries code %q outside the error table", r.method, target, resp.StatusCode, er.Code)
		}
	})
}
