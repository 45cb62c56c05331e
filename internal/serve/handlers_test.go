package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/trace"
)

// testServer builds a served NIC with the background loop running and
// returns it with its HTTP test frontend. The loop is stopped at cleanup.
func testServer(t *testing.T, withTracer bool) (*Server, *httptest.Server) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TenantWeights = map[uint16]uint64{1: 1, 2: 1}
	var tracer *trace.Tracer
	if withTracer {
		tracer = trace.New(trace.Options{FreqHz: cfg.FreqHz, Sample: 1})
		cfg.Tracer = tracer
	}
	ports := NewIngestSources(cfg.Ports)
	nic := core.NewNIC(cfg, AsEngineSources(ports))
	s := New(Config{BarrierCycles: 2048, Spin: true}, nic, tracer, ports)
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
		s.Wait()
		nic.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func do(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

func TestIndexListsEveryRoute(t *testing.T) {
	_, ts := testServer(t, false)
	var idx []struct{ Method, Path, Summary string }
	if code := getJSON(t, ts.URL+"/", &idx); code != http.StatusOK {
		t.Fatalf("GET /: status %d", code)
	}
	if len(idx) != len(RoutePatterns()) {
		t.Fatalf("index has %d rows, route table has %d", len(idx), len(RoutePatterns()))
	}
	for _, row := range idx {
		if row.Method == "" || row.Path == "" || row.Summary == "" {
			t.Errorf("index row incomplete: %+v", row)
		}
	}
	// Unknown paths must not be swallowed by the root route.
	if code := getJSON(t, ts.URL+"/nope", nil); code != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", code)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := testServer(t, false)
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz: %d", code)
	}
	resp, _ := do(t, "POST", ts.URL+"/drain", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	// Draining: not ready, still (briefly) alive; the idle server goes
	// quiet within a few barriers, after which both report stopped.
	s.Wait()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after stop: %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after stop: %d", code)
	}
	// Mutations after stop: 503.
	resp, _ = do(t, "PUT", ts.URL+"/tenants/1", `{"weight":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mutation after stop: %d", resp.StatusCode)
	}
}

func TestStatzAdvances(t *testing.T) {
	_, ts := testServer(t, false)
	var a, b struct{ Barrier uint64 }
	getJSON(t, ts.URL+"/statz", &a)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/statz", &b)
		if b.Barrier > a.Barrier {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("barrier did not advance past %d", a.Barrier)
}

func TestIngestTraceEndToEnd(t *testing.T) {
	_, ts := testServer(t, false)
	batch := "0 1 1 1 42 0 0 0\n10 1 1 3 43 128 0 0\n20 2 1 1 44 0 1 0\n"
	resp, body := do(t, "POST", ts.URL+"/ingest/trace?port=0", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d %v", resp.StatusCode, body)
	}
	if body["records"].(float64) != 3 {
		t.Fatalf("ingest reply: %v", body)
	}
	// The replayed requests must show up as deliveries.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var st Statz
		getJSON(t, ts.URL+"/statz", &st)
		if st.RxPackets >= 3 && st.HostDeliveries+st.WireDeliveries >= 3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("ingested records never delivered")
}

func TestIngestValidation(t *testing.T) {
	_, ts := testServer(t, false)
	cases := []struct {
		name, method, url, body string
	}{
		{"bad op", "POST", "/ingest/trace?port=0", "0 1 1 9 1 0 0 0\n"},
		{"tenant 0", "POST", "/ingest/trace?port=0", "0 0 1 1 1 0 0 0\n"},
		{"bad port", "POST", "/ingest/trace?port=9", "0 1 1 1 1 0 0 0\n"},
		{"empty batch", "POST", "/ingest/trace?port=0", "# nothing\n"},
		{"non-monotone", "POST", "/ingest/trace?port=0", "10 1 1 1 1 0 0 0\n5 1 1 1 2 0 0 0\n"},
		{"unbounded stream", "POST", "/ingest/stream", `{"port":0,"tenant":1,"rate_gbps":1,"keys":8,"count":0}`},
		{"stream bad port", "POST", "/ingest/stream", `{"port":7,"tenant":1,"rate_gbps":1,"keys":8,"count":10}`},
		{"stream bad ratio", "POST", "/ingest/stream", `{"port":0,"tenant":1,"rate_gbps":1,"keys":8,"get_ratio":1.5,"count":10}`},
		{"stream bad class", "POST", "/ingest/stream", `{"port":0,"tenant":1,"class":"turbo","rate_gbps":1,"keys":8,"count":10}`},
		{"stream no keys", "POST", "/ingest/stream", `{"port":0,"tenant":1,"rate_gbps":1,"count":10}`},
	}
	for _, c := range cases {
		resp, body := do(t, c.method, ts.URL+c.url, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", c.name, resp.StatusCode, body)
		}
	}
}

// waitTenantWeight polls GET /tenants/{id} until the published snapshot
// catches up to a weight mutation — the op reply lands before the
// barrier's publish, so an immediate read may still see the old table.
func waitTenantWeight(t *testing.T, url string, want uint64) {
	t.Helper()
	var got struct {
		Tenant uint16 `json:"tenant"`
		Weight uint64 `json:"weight"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, url, &got); code != http.StatusOK {
			t.Fatalf("GET %s: %d", url, code)
		}
		if got.Weight == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: weight %d never became %d", url, got.Weight, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTenantWeightCRUD(t *testing.T) {
	_, ts := testServer(t, false)
	resp, body := do(t, "PUT", ts.URL+"/tenants/2", `{"weight":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d %v", resp.StatusCode, body)
	}
	waitTenantWeight(t, ts.URL+"/tenants/2", 5)
	resp, body = do(t, "DELETE", ts.URL+"/tenants/2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d %v", resp.StatusCode, body)
	}
	waitTenantWeight(t, ts.URL+"/tenants/2", 1) // weighted-LSTF default weight
	// Deleting a weight that is not explicit: 400.
	resp, _ = do(t, "DELETE", ts.URL+"/tenants/2", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("double DELETE: %d, want 400", resp.StatusCode)
	}
	// Weight 0 and bad ids are rejected without reaching the barrier.
	resp, _ = do(t, "PUT", ts.URL+"/tenants/2", `{"weight":0}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("weight 0: %d", resp.StatusCode)
	}
	resp, _ = do(t, "PUT", ts.URL+"/tenants/zero", `{"weight":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: %d", resp.StatusCode)
	}
}

func TestReloadWeightsAndProgram(t *testing.T) {
	_, ts := testServer(t, false)
	resp, body := do(t, "POST", ts.URL+"/reload/weights", `{"weights":{"1":4,"2":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weights: %d %v", resp.StatusCode, body)
	}
	w := body["weights"].(map[string]any)
	if w["1"].(float64) != 4 {
		t.Fatalf("weights reply: %v", body)
	}

	var before Statz
	getJSON(t, ts.URL+"/statz", &before)
	ops := `{"ops":[
		{"op":"acl-drop","src_prefix":"203.0.113.0","prefix_len":24,"priority":100},
		{"op":"steer","from":"ipsec","to":"ipsec"},
		{"op":"acl-clear"}
	]}`
	resp, body = do(t, "POST", ts.URL+"/reload/program", ops)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("program: %d %v", resp.StatusCode, body)
	}
	if n := len(body["applied"].([]any)); n != 3 {
		t.Fatalf("applied %d ops, want 3: %v", n, body)
	}
	// The reply's generation is computed after the edits land, so it must
	// be ahead of any snapshot taken before the POST.
	if gen := body["program_generation"].(float64); uint64(gen) <= before.ProgramGeneration {
		t.Errorf("program generation did not advance: %d -> %v", before.ProgramGeneration, gen)
	}

	// Validation failures never reach the barrier.
	for name, bad := range map[string]string{
		"unknown op":     `{"ops":[{"op":"reboot"}]}`,
		"bad prefix":     `{"ops":[{"op":"acl-drop","src_prefix":"nope","prefix_len":8}]}`,
		"bad prefix len": `{"ops":[{"op":"acl-drop","src_prefix":"10.0.0.0","prefix_len":40}]}`,
		"bad engine":     `{"ops":[{"op":"steer","from":"warp-core","to":"ipsec"}]}`,
		"no ops":         `{"ops":[]}`,
	} {
		resp, _ := do(t, "POST", ts.URL+"/reload/program", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	_, ts := testServer(t, false)
	resp, body := do(t, "POST", ts.URL+"/faults", "at 100 slow ipsec x2 for 5000\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faults: %d %v", resp.StatusCode, body)
	}
	if body["events"].(float64) != 1 {
		t.Fatalf("faults reply: %v", body)
	}
	for name, bad := range map[string]string{
		"at 0":           "at 0 wedge ipsec\n",
		"unknown engine": "at 10 wedge flux-capacitor\n",
		"empty":          "# nothing\n",
		"garbage":        "wedge everything now\n",
	} {
		resp, _ := do(t, "POST", ts.URL+"/faults", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestTraceExport(t *testing.T) {
	_, ts := testServer(t, true)
	// Give the tracer something to record, then export.
	do(t, "POST", ts.URL+"/ingest/trace?port=0", "0 1 1 1 7 0 0 0\n")
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st Statz
		getJSON(t, ts.URL+"/statz", &st)
		if st.HostDeliveries+st.WireDeliveries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ingested record never delivered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

func TestTraceExportWithoutTracer(t *testing.T) {
	_, ts := testServer(t, false)
	if code := getJSON(t, ts.URL+"/trace", nil); code != http.StatusConflict {
		t.Fatalf("trace without tracer: %d, want 409", code)
	}
}

func TestBarrierPinning(t *testing.T) {
	s, ts := testServer(t, false)
	// Wait until some barriers completed, then pin to an old one: 409.
	deadline := time.Now().Add(5 * time.Second)
	for s.Barrier() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("loop is not advancing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := do(t, "PUT", ts.URL+"/tenants/1?barrier=1", `{"weight":2}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("past barrier: %d %v, want 409", resp.StatusCode, body)
	}
	// A future barrier applies, and never before the pinned barrier. The
	// spinning idle loop can race past a small delta between reading
	// Barrier() and the enqueue, so grow the delta until the pin lands.
	// (Exact placement — barrier k is cycle k*quantum — is pinned by
	// TestBarrierPlacementInvariant, which drives barriers itself.)
	var target uint64
	applied := false
	for delta := uint64(1000); delta <= 1<<26 && !applied; delta *= 8 {
		target = s.Barrier() + delta
		resp, body = do(t, "PUT", fmt.Sprintf("%s/tenants/1?barrier=%d", ts.URL, target), `{"weight":2}`)
		switch resp.StatusCode {
		case http.StatusOK:
			applied = true
		case http.StatusConflict:
			// Loop outran the delta; retry bigger.
		default:
			t.Fatalf("future barrier: %d %v", resp.StatusCode, body)
		}
	}
	if !applied {
		t.Fatal("future-barrier op never applied")
	}
	log := s.Oplog()
	got := log[len(log)-1]
	if got.Barrier < target {
		t.Errorf("op applied at barrier %d, before its pin %d", got.Barrier, target)
	}
	if resp, _ := do(t, "PUT", ts.URL+"/tenants/1?barrier=x", `{"weight":2}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage barrier: %d", resp.StatusCode)
	}
}

func TestOplogRecordsMutations(t *testing.T) {
	s, ts := testServer(t, false)
	do(t, "POST", ts.URL+"/reload/weights", `{"weights":{"1":2}}`)
	var log []OplogEntry
	if code := getJSON(t, ts.URL+"/oplog", &log); code != http.StatusOK {
		t.Fatalf("oplog: %d", code)
	}
	if len(log) != 1 || !strings.HasPrefix(log[0].Name, "reload-weights") {
		t.Fatalf("oplog: %+v", log)
	}
	if log[0].Cycle != log[0].Barrier*2048 {
		t.Errorf("oplog cycle %d is not barrier %d * quantum", log[0].Cycle, log[0].Barrier)
	}
	_ = s
}

// idleServer builds a served NIC whose loop is not started: the test
// drives barriers with RunBarriers, so a published snapshot stays put.
func idleServer(t testing.TB) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TenantWeights = map[uint16]uint64{1: 1, 2: 1}
	ports := NewIngestSources(cfg.Ports)
	nic := core.NewNIC(cfg, AsEngineSources(ports))
	t.Cleanup(nic.Close)
	s := New(Config{BarrierCycles: 2048, Spin: true}, nic, nil, ports)
	s.RunBarriers(3)
	return s
}

// performRequest drives the in-process router without a network.
func performRequest(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestStatzBodyMatchesWriteJSON: the cached /statz body is writeJSON's
// encoding of the same snapshot, byte for byte, with the same header.
func TestStatzBodyMatchesWriteJSON(t *testing.T) {
	s := idleServer(t)
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, s.Statz())
	for i := 0; i < 2; i++ { // the encoding read, then a cached one
		got := performRequest(s.Handler(), "GET", "/statz", "")
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("read %d: status %d %q, want %d %q", i, got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("read %d: body differs from writeJSON's:\n%s\nwant:\n%s", i, got.Body, want.Body)
		}
	}
}

// TestStatzConcurrentReaders: readers racing on a snapshot's first read
// all get the same bytes (run under -race to check the encoding handoff).
func TestStatzConcurrentReaders(t *testing.T) {
	s := idleServer(t)
	h := s.Handler()
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, s.Statz())
	bodies := make([][]byte, 32)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = performRequest(h, "GET", "/statz", "").Body.Bytes()
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want.Body.Bytes()) {
			t.Fatalf("reader %d got a different body", i)
		}
	}
}

// TestStatzEncodedOncePerSnapshot: two reads of one snapshot return the
// same bytes, not an equal copy, and a later read neither encodes nor
// allocates; the next barrier's snapshot gets a body of its own.
func TestStatzEncodedOncePerSnapshot(t *testing.T) {
	s := idleServer(t)
	a, b := s.statzBody(), s.statzBody()
	if unsafe.SliceData(a) != unsafe.SliceData(b) || len(a) != len(b) {
		t.Fatal("second read of one snapshot re-encoded it")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.statzBody() }); allocs != 0 {
		t.Errorf("cached statz body: %.0f allocations per read, want 0", allocs)
	}
	// Through the handler, a cached read costs what a handler that
	// writes a fixed byte slice costs.
	fixed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(a)
	}
	req := httptest.NewRequest("GET", "/statz", nil)
	run := func(h http.HandlerFunc) float64 {
		return testing.AllocsPerRun(50, func() { h(httptest.NewRecorder(), req) })
	}
	read, write := run(s.handleStatz()), run(fixed)
	if read > write {
		t.Errorf("cached /statz read: %.0f allocations, writing its bytes takes %.0f", read, write)
	}

	s.RunBarriers(1)
	c := s.statzBody()
	if unsafe.SliceData(c) == unsafe.SliceData(a) || bytes.Equal(c, a) {
		t.Fatal("the next barrier's snapshot kept the old body")
	}
	var st struct{ Barrier uint64 }
	if err := json.Unmarshal(c, &st); err != nil || st.Barrier != 4 {
		t.Fatalf("body after barrier 4: barrier %d, %v", st.Barrier, err)
	}
}

// BenchmarkStatzRead is a /statz read of a snapshot already read once.
func BenchmarkStatzRead(b *testing.B) {
	h := idleServer(b).Handler()
	req := httptest.NewRequest("GET", "/statz", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// TestIngestTraceRejections: malformed trace batches get a 400 with a
// JSON error from the in-process router, and well-formed ones with any
// white space between fields are admitted.
func TestIngestTraceRejections(t *testing.T) {
	s, _ := testServer(t, false)
	h := s.Handler()
	for name, body := range map[string]string{
		"out of range": "100 65537 256 257 5 4294967297 7 300\n",
		"non-numeric":  "0 1 1 x 42 0 0 0\n",
		"nine fields":  "0 1 1 1 42 0 0 0 0\n",
		"descending":   "10 1 1 1 42 0 0 0\n5 1 1 1 43 0 0 0\n",
		"empty":        "",
	} {
		w := performRequest(h, "POST", "/ingest/trace?port=0", body)
		var reply struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || reply.Error == "" {
			t.Errorf("%s: body %q is not a JSON error (%v)", name, w.Body, err)
		}
		if w.Code != http.StatusBadRequest || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d %q, want 400 application/json", name, w.Code, w.Header().Get("Content-Type"))
		}
	}
	w := performRequest(h, "POST", "/ingest/trace?port=0", "0\t1\t1\t1\t42\t0\t0\t0\n10\u00a01 1\u00a03 43 128\u00a00\t0\n")
	if w.Code != http.StatusAccepted || !strings.Contains(w.Body.String(), `"records": 2`) {
		t.Fatalf("tab and U+00A0 separated batch: %d %s", w.Code, w.Body)
	}
}
