package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	insq "repro"
	"repro/internal/api"
)

func newTestServer(t *testing.T) (*httptest.Server, *insq.Engine) {
	t.Helper()
	bounds := insq.NewRect(insq.Pt(0, 0), insq.Pt(1000, 1000))
	e, err := insq.NewEngine(insq.EngineConfig{
		Shards:  4,
		Bounds:  bounds,
		Objects: insq.UniformPoints(500, bounds, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(e, false).Handler())
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts, e
}

func postJSON(t *testing.T, url string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode < 300 {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r.StatusCode
}

func doDelete(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	return r.StatusCode
}

// TestServerEndToEnd exercises the full HTTP serving flow: session create,
// batched updates, data updates with result invalidation, stats, close.
func TestServerEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	var created api.CreateSessionResponse
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 3}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	if created.Session == 0 {
		t.Fatal("zero session id")
	}

	var upd api.UpdateResponse
	req := api.UpdateRequest{Updates: []api.UpdateEntry{{Session: created.Session, X: 500, Y: 500}}}
	if code := postJSON(t, ts.URL+"/v1/update", req, &upd); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	if len(upd.Results) != 1 || upd.Results[0].Error != "" || len(upd.Results[0].KNN) != 3 {
		t.Fatalf("update results: %+v", upd.Results)
	}

	// Insert an object at the query position; it must appear in the next
	// result (the engine invalidates the session lazily).
	var obj api.ObjectResponse
	if code := postJSON(t, ts.URL+"/v1/objects", api.ObjectRequest{X: 500, Y: 500}, &obj); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/update", req, &upd); code != http.StatusOK {
		t.Fatalf("update 2: status %d", code)
	}
	if len(upd.Results[0].KNN) == 0 || upd.Results[0].KNN[0] != obj.ID {
		t.Fatalf("inserted object %d not the NN: %v", obj.ID, upd.Results[0].KNN)
	}

	// Stats are never cached: each scrape shows the writes before it.
	scrape := func() (api.StatsResponse, string) {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("stats: status %d: %s", r.StatusCode, raw)
		}
		var st api.StatsResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		return st, string(raw)
	}
	st, raw := scrape()
	for _, field := range []string{`"uptime_seconds"`, `"go_version"`} {
		if !strings.Contains(raw, field) {
			t.Errorf("stats missing %s: %s", field, raw)
		}
	}
	if st.Objects != 501 {
		t.Errorf("stats objects after insert = %d, want 501", st.Objects)
	}
	if code := doDelete(t, fmt.Sprintf("%s/v1/objects/%d", ts.URL, obj.ID)); code != http.StatusNoContent {
		t.Fatalf("delete object: status %d", code)
	}

	st, _ = scrape()
	if st.Sessions != 1 || st.Updates != 2 || st.Epoch != 2 || st.Shards != 4 || st.Objects != 500 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Latency.Count != st.Updates {
		t.Fatalf("latency count %d != updates %d", st.Latency.Count, st.Updates)
	}

	if code := doDelete(t, fmt.Sprintf("%s/v1/sessions/%d", ts.URL, created.Session)); code != http.StatusNoContent {
		t.Fatalf("close session: status %d", code)
	}
	if code := doDelete(t, fmt.Sprintf("%s/v1/sessions/%d", ts.URL, created.Session)); code != http.StatusNotFound {
		t.Fatalf("double close: status %d", code)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	// Malformed bodies and ids are 400s.
	r, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d", r.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 0}, nil); code != http.StatusBadRequest {
		t.Errorf("k=0: status %d", code)
	}
	if code := doDelete(t, ts.URL+"/v1/sessions/notanumber"); code != http.StatusBadRequest {
		t.Errorf("bad id: status %d", code)
	}

	// Unknown sessions inside a batch are per-entry errors, not HTTP errors.
	var upd api.UpdateResponse
	req := api.UpdateRequest{Updates: []api.UpdateEntry{{Session: 999, X: 1, Y: 1}}}
	if code := postJSON(t, ts.URL+"/v1/update", req, &upd); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	if upd.Results[0].Error == "" {
		t.Error("unknown session produced no error")
	}

	// Removing an unknown object is a 404 and does not advance the data
	// epoch; inserting outside the data space is the client's fault.
	if code := doDelete(t, ts.URL+"/v1/objects/99999"); code != http.StatusNotFound {
		t.Errorf("unknown object delete: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/objects", api.ObjectRequest{X: -5000, Y: -5000}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-bounds insert: status %d", code)
	}
	r, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Epoch != 0 {
		t.Errorf("failed remove advanced epoch to %d", st.Epoch)
	}

	if r, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", r.StatusCode)
	}
	r.Body.Close()
}

// sseReader incrementally parses a text/event-stream body.
type sseReader struct {
	r *bufio.Reader
}

// next returns the next event's name and decoded SessionEvent payload,
// skipping comment keep-alives.
func (s *sseReader) next(t *testing.T) (string, api.SessionEvent) {
	t.Helper()
	var name string
	var data []byte
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if name == "" && data == nil {
				continue // stray separator
			}
			var ev api.SessionEvent
			if len(data) > 0 {
				if err := json.Unmarshal(data, &ev); err != nil {
					t.Fatalf("bad event payload %q: %v", data, err)
				}
			}
			return name, ev
		case strings.HasPrefix(line, ":"): // comment / ping
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		}
	}
}

// TestServerSSEPush is the acceptance scenario end to end: an SSE
// subscriber receives the kNN delta caused by an object insert without
// the client ever calling /v1/update again, the broker state is visible
// in /v1/stats, and shutdown delivers a final bye event.
func TestServerSSEPush(t *testing.T) {
	ts, e := newTestServer(t)

	var created api.CreateSessionResponse
	if code := postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 3}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d", code)
	}
	sid := created.Session

	// Give the session a position (the last poll it will ever make).
	var upd api.UpdateResponse
	req := api.UpdateRequest{Updates: []api.UpdateEntry{{Session: sid, X: 500, Y: 500}}}
	if code := postJSON(t, ts.URL+"/v1/update", req, &upd); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	baseline := upd.Results[0].KNN

	// Unknown session ids are a clean 404, not a hanging stream.
	r, err := http.Get(fmt.Sprintf("%s/v1/sessions/%d/events", ts.URL, sid+999))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown session: status %d", r.StatusCode)
	}

	r, err = http.Get(fmt.Sprintf("%s/v1/sessions/%d/events", ts.URL, sid))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	sse := &sseReader{r: bufio.NewReader(r.Body)}

	name, snap := sse.next(t)
	if name != "snapshot" || snap.Session != sid {
		t.Fatalf("first event = %s %+v, want a snapshot for session %d", name, snap, sid)
	}
	if len(snap.KNN) != 3 {
		t.Fatalf("snapshot kNN %v, want 3 members", snap.KNN)
	}

	// Insert an object a hair from the session's position: it must become
	// its nearest neighbor and arrive as a pushed delta — no /v1/update.
	var obj api.ObjectResponse
	if code := postJSON(t, ts.URL+"/v1/objects", api.ObjectRequest{X: 500.01, Y: 500.01}, &obj); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}

	name, ev := sse.next(t)
	if name != "data" || ev.Cause != "data" {
		t.Fatalf("pushed event = %s %+v, want cause data", name, ev)
	}
	added := false
	for _, id := range ev.Added {
		added = added || id == obj.ID
	}
	if !added {
		t.Fatalf("delta %+v does not add inserted object %d", ev, obj.ID)
	}
	inKNN := false
	for _, id := range ev.KNN {
		inKNN = inKNN || id == obj.ID
	}
	if !inKNN {
		t.Fatalf("pushed kNN %v misses object %d", ev.KNN, obj.ID)
	}
	if ev.Seq <= snap.Seq {
		t.Fatalf("event seq %d not after snapshot seq %d", ev.Seq, snap.Seq)
	}
	if sameSet(ev.KNN, baseline) {
		t.Fatal("pushed kNN identical to the pre-insert baseline")
	}

	// The broker's fan-out state is observable in /v1/stats.
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.Stream.Subscribers != 1 || st.Stream.WatchedSessions != 1 {
		t.Errorf("stream stats = %+v, want 1 subscriber watching 1 session", st.Stream)
	}
	if st.Stream.Published == 0 || st.Stream.Delivered == 0 {
		t.Errorf("stream counters empty: %+v", st.Stream)
	}

	// Graceful shutdown: closing the broker (what insqd does on SIGTERM)
	// must terminate the stream with a bye event, not a reset.
	e.Stream().Close()
	name, _ = sse.next(t)
	if name != "bye" {
		t.Fatalf("final event = %s, want bye", name)
	}
}

// TestServerSSEMultiSession: the firehose variant streams deltas for all
// listed sessions and skips unknown ids instead of failing the stream.
func TestServerSSEMultiSession(t *testing.T) {
	ts, _ := newTestServer(t)

	var a, b api.CreateSessionResponse
	postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 2}, &a)
	postJSON(t, ts.URL+"/v1/sessions", api.CreateSessionRequest{K: 2}, &b)
	req := api.UpdateRequest{Updates: []api.UpdateEntry{
		{Session: a.Session, X: 200, Y: 200},
		{Session: b.Session, X: 800, Y: 800},
	}}
	var upd api.UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update", req, &upd); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}

	url := fmt.Sprintf("%s/v1/events?sessions=%d,%d,424242", ts.URL, a.Session, b.Session)
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("multi events: status %d", r.StatusCode)
	}
	sse := &sseReader{r: bufio.NewReader(r.Body)}
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		name, ev := sse.next(t)
		if name != "snapshot" {
			t.Fatalf("event %d = %s, want snapshot", i, name)
		}
		seen[ev.Session] = true
	}
	if !seen[a.Session] || !seen[b.Session] {
		t.Fatalf("snapshots for %v, want both live sessions", seen)
	}

	// One insert near each session: both must receive their own delta.
	postJSON(t, ts.URL+"/v1/objects", api.ObjectRequest{X: 200.01, Y: 200.01}, nil)
	postJSON(t, ts.URL+"/v1/objects", api.ObjectRequest{X: 800.01, Y: 800.01}, nil)
	got := map[uint64]bool{}
	for len(got) < 2 {
		name, ev := sse.next(t)
		if name != "data" {
			continue
		}
		got[ev.Session] = true
	}

	// A malformed sessions list is a 400, not a stream.
	r2, err := http.Get(ts.URL + "/v1/events?sessions=1,nope")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sessions list: status %d", r2.StatusCode)
	}
}

// sameSet reports equal membership ignoring order.
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]bool, len(a))
	for _, id := range a {
		in[id] = true
	}
	for _, id := range b {
		if !in[id] {
			return false
		}
	}
	return true
}
