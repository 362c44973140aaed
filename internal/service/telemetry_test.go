package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/telemetry"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// TestMetricsLint is the CI metrics-lint gate (scripts/check.sh runs it by
// name): every family a fresh server registers must carry a conforming
// chimera_* name and non-empty help text. A new metric that violates the
// naming law fails here before it ever reaches a dashboard.
func TestMetricsLint(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	fams := srv.Metrics().Families()
	if len(fams) < 20 {
		t.Fatalf("only %d metric families registered; expected the full catalogue", len(fams))
	}
	for _, f := range fams {
		if !telemetry.ValidName(f.Name) {
			t.Errorf("metric %q violates the chimera_[a-z_]+ naming law", f.Name)
		}
		if strings.TrimSpace(f.Help) == "" {
			t.Errorf("metric %q has no help text", f.Name)
		}
	}
}

// scrape GETs /metrics from the handler and parses the exposition into
// sample name (with label set) -> value, verifying basic format on the way.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpointCoversAllLayers drives one rewrite and one run through
// the HTTP API, then asserts /metrics carries samples from every layer —
// service lifecycle, cache, stages, scheduler, kernel, emulator block
// engine — and that /stats (rebuilt from the same registry) agrees exactly
// with the scraped values.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	img := testImages(t, 1)[0]
	fib, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rwBody, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(rwBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rewrite status %d", resp.StatusCode)
	}
	runBody, _ := json.Marshal(runHTTPRequest{Image: wire(t, fib)})
	resp, err = http.Post(ts.URL+"/run", "application/json", bytes.NewReader(runBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run status %d", resp.StatusCode)
	}
	// /run is traced too: its trace must show the execution pipeline.
	runTraceID := resp.Header.Get("X-Chimera-Trace")
	if runTraceID == "" {
		t.Fatal("/run response carries no X-Chimera-Trace header")
	}
	tresp, err := http.Get(ts.URL + "/trace/" + runTraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var runTrace telemetry.TraceJSON
	if err := json.NewDecoder(tresp.Body).Decode(&runTrace); err != nil {
		t.Fatal(err)
	}
	if runTrace.Name != "run" {
		t.Errorf("/run trace name %q", runTrace.Name)
	}
	hasExec := false
	for _, sp := range runTrace.Spans {
		if sp.Name == "run_exec" && sp.DurationUS >= 0 {
			hasExec = true
		}
	}
	if !hasExec {
		t.Errorf("/run trace missing run_exec span: %+v", runTrace.Spans)
	}

	m := scrape(t, srv.Handler())

	// One sample per layer proves the wiring end to end.
	wantPositive := []string{
		"chimera_requests_accepted_total",                   // service lifecycle
		"chimera_requests_completed_total",                  //
		"chimera_cache_misses_total",                        // rewrite cache
		`chimera_request_seconds_count{endpoint="rewrite"}`, // latency vec
		`chimera_request_seconds_count{endpoint="run"}`,     //
		`chimera_method_seconds_count{method="chbp"}`,       //
		`chimera_stage_seconds_count{stage="rewrite"}`,      // pipeline stages
		`chimera_stage_seconds_count{stage="cache_lookup"}`, //
		`chimera_stage_seconds_count{stage="queue_wait"}`,   //
		`chimera_stage_seconds_count{stage="run_exec"}`,     //
		"chimera_kernel_cycles_total",                       // kernel accounting
		"chimera_guest_runs_total",                          // emulator
		"chimera_guest_instret_total",                       //
		"chimera_block_dispatches_total",                    // block engine
		"chimera_block_retired_total",                       //
		"chimera_uptime_seconds",                            // gauges
		"chimera_workers",                                   //
	}
	for _, name := range wantPositive {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}

	// /stats is rendered from the same registry: the two views must agree
	// sample for sample.
	st := srv.Stats()
	pairs := []struct {
		name string
		stat float64
	}{
		{"chimera_requests_accepted_total", float64(st.Accepted)},
		{"chimera_requests_completed_total", float64(st.Completed)},
		{"chimera_cache_hits_total", float64(st.Cache.Hits)},
		{"chimera_cache_misses_total", float64(st.Cache.Misses)},
		{"chimera_guest_runs_total", float64(st.Emulator.Runs)},
		{"chimera_guest_instret_total", float64(st.Emulator.Instret)},
		{"chimera_block_dispatches_total", float64(st.Emulator.Blocks.Dispatches)},
		{"chimera_worker_panics_total", float64(st.Faults.Panics)},
		{"chimera_degradations_total", float64(st.Faults.Degradations)},
		{`chimera_request_seconds_count{endpoint="rewrite"}`, float64(st.Endpoints["rewrite"].Count)},
		{`chimera_request_seconds_count{endpoint="run"}`, float64(st.Endpoints["run"].Count)},
	}
	for _, p := range pairs {
		if m[p.name] != p.stat {
			t.Errorf("/metrics %s = %v but /stats reports %v", p.name, m[p.name], p.stat)
		}
	}
	if len(st.Stages) == 0 {
		t.Error("/stats stages block empty; stage histograms not surfaced")
	}
}

// TestTraceEndpoint checks request tracing end to end over HTTP: a traced
// /rewrite answers with an X-Chimera-Trace id whose /trace/{id} JSON shows
// the full pipeline (cache lookup, breaker check, singleflight, queue wait,
// rewrite attempt), and a second identical request's trace records the
// cache hit instead.
func TestTraceEndpoint(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	post := func() (string, *http.Response) {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/rewrite status %d", resp.StatusCode)
		}
		id := resp.Header.Get("X-Chimera-Trace")
		if id == "" {
			t.Fatal("no X-Chimera-Trace header on traced response")
		}
		return id, resp
	}
	getTrace := func(id string) telemetry.TraceJSON {
		resp, err := http.Get(ts.URL + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/trace/%s status %d", id, resp.StatusCode)
		}
		var tr telemetry.TraceJSON
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	coldID, _ := post()
	cold := getTrace(coldID)
	if cold.ID != coldID || cold.Name != "rewrite" {
		t.Fatalf("trace identity: %+v", cold)
	}
	if cold.DurationUS <= 0 {
		t.Error("finished trace has no duration")
	}
	if cold.Attrs["method"] != "chbp" || cold.Attrs["target"] == "" {
		t.Errorf("trace attrs %v, want method/target recorded", cold.Attrs)
	}
	spans := make(map[string]telemetry.SpanJSON, len(cold.Spans))
	for _, sp := range cold.Spans {
		spans[sp.Name] = sp
	}
	for _, want := range []string{"cache_lookup", "breaker_check", "singleflight", "queue_wait", "rewrite_attempt", "cache_store"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("cold rewrite trace missing span %q (got %v)", want, cold.Spans)
		}
	}
	if spans["cache_lookup"].Attrs["hit"] != "false" {
		t.Errorf("cold lookup span attrs %v, want hit=false", spans["cache_lookup"].Attrs)
	}
	if spans["singleflight"].Attrs["role"] != "leader" {
		t.Errorf("cold singleflight role %v, want leader", spans["singleflight"].Attrs)
	}

	// Second identical request: the trace must show a cache hit and no
	// rewrite attempt.
	hitID, _ := post()
	if hitID == coldID {
		t.Fatal("two requests shared a trace id")
	}
	hit := getTrace(hitID)
	for _, sp := range hit.Spans {
		if sp.Name == "rewrite_attempt" {
			t.Error("cache-hit trace contains a rewrite_attempt span")
		}
		if sp.Name == "cache_lookup" && sp.Attrs["hit"] != "true" {
			t.Errorf("hit lookup span attrs %v, want hit=true", sp.Attrs)
		}
	}

	// Unknown ids 404; the bare prefix 400s.
	if resp, err := http.Get(ts.URL + "/trace/ffffffff-ffffff"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/trace/"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bare /trace/: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestTracerRingBound checks the server-side retention bound: with
// TraceCapacity 2, the oldest of three traces is evicted from /trace.
func TestTracerRingBound(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1, TraceCapacity: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: wire(t, img)})
	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, resp.Header.Get("X-Chimera-Trace"))
	}
	statuses := make([]int, len(ids))
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/trace/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses[i] = resp.StatusCode
	}
	if statuses[0] != http.StatusNotFound {
		t.Errorf("oldest trace survived past capacity: status %d", statuses[0])
	}
	if statuses[1] != http.StatusOK || statuses[2] != http.StatusOK {
		t.Errorf("recent traces not retained: statuses %v", statuses)
	}
}

// TestChaosMetricsExact ties the chaos injector to the registry: every
// injected fault must appear in /metrics with the exact injected count —
// the observability layer may not under- or over-report failures.
func TestChaosMetricsExact(t *testing.T) {
	t.Run("spurious_faults", func(t *testing.T) {
		fib, err := workload.Fibonacci(8, riscv.RV64GC, true)
		if err != nil {
			t.Fatal(err)
		}
		inj := chaosCfg(0, chaos.SpuriousFault)
		srv := New(Config{Workers: 1, Chaos: inj})
		defer srv.Shutdown(context.Background())
		if _, err := srv.Run(context.Background(), &RunRequest{Image: fib}); err != nil {
			t.Fatal(err)
		}
		m := scrape(t, srv.Handler())
		fired := float64(inj.Fired(chaos.SpuriousFault))
		if fired == 0 {
			t.Fatal("spurious-fault injector never fired")
		}
		if got := m["chimera_kernel_spurious_faults_total"]; got != fired {
			t.Errorf("chimera_kernel_spurious_faults_total = %v, injector fired %v", got, fired)
		}
	})

	t.Run("worker_panics", func(t *testing.T) {
		images := testImages(t, 3)
		inj := chaosCfg(0, chaos.RewritePanic)
		srv := New(Config{Workers: 1, MaxRetries: -1, Chaos: inj})
		defer srv.Shutdown(context.Background())
		for _, img := range images {
			if _, err := srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: img}); err != nil {
				t.Fatal(err)
			}
		}
		m := scrape(t, srv.Handler())
		fired := float64(inj.Fired(chaos.RewritePanic))
		if got := m["chimera_worker_panics_total"]; got != fired || got != float64(len(images)) {
			t.Errorf("chimera_worker_panics_total = %v, injector fired %v, requests %d", got, fired, len(images))
		}
		if got := m["chimera_degradations_total"]; got != float64(len(images)) {
			t.Errorf("chimera_degradations_total = %v, want %d", got, len(images))
		}
	})

	t.Run("cache_corruption", func(t *testing.T) {
		img := testImages(t, 1)[0]
		inj := chaosCfg(0, chaos.CacheCorrupt)
		srv := New(Config{Workers: 1, Chaos: inj})
		defer srv.Shutdown(context.Background())
		req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: img}
		// Cold rewrite corrupts its own fresh entry; the second request's
		// lookup must detect exactly one corruption and evict.
		for i := 0; i < 2; i++ {
			if _, err := srv.Rewrite(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		m := scrape(t, srv.Handler())
		if got := m["chimera_cache_corrupt_evictions_total"]; got != 1 {
			t.Errorf("chimera_cache_corrupt_evictions_total = %v, want exactly 1", got)
		}
		if st := srv.Stats(); float64(st.Cache.CorruptEvictions) != m["chimera_cache_corrupt_evictions_total"] {
			t.Errorf("/stats corrupt evictions %d != /metrics %v",
				st.Cache.CorruptEvictions, m["chimera_cache_corrupt_evictions_total"])
		}
	})
}

// TestProfileEndpoint runs a guest with server-side profiling enabled and
// checks /profile reports the per-image hot blocks, and that profiling is a
// 404 when disabled (never silently empty).
func TestProfileEndpoint(t *testing.T) {
	fib, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 1, GuestProfile: true})
	defer srv.Shutdown(context.Background())
	res, err := srv.Run(context.Background(), &RunRequest{Image: fib})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/profile?top=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/profile status %d", resp.StatusCode)
	}
	var profs []ImageProfile
	if err := json.NewDecoder(resp.Body).Decode(&profs); err != nil {
		t.Fatal(err)
	}
	if len(profs) != 1 {
		t.Fatalf("profiles for %d images, want 1", len(profs))
	}
	p := profs[0]
	if p.Image != fib.Name {
		t.Errorf("profile image %q, want %q", p.Image, fib.Name)
	}
	if id, _ := fib.ContentID(); p.ContentID != id {
		t.Errorf("profile content_id %q, want %q", p.ContentID, id)
	}
	// The profiler sees CPU cycles only; res.Cycles adds kernel overhead
	// (syscall/exit charges) on top, so it bounds the profile from above.
	if p.Instret != res.Instret || p.Cycles == 0 || p.Cycles > res.Cycles {
		t.Errorf("profile totals instret=%d cycles=%d, run reported %d/%d",
			p.Instret, p.Cycles, res.Instret, res.Cycles)
	}
	if len(p.Hot) == 0 || p.Hot[0].Rank != 1 || p.Hot[0].Cycles == 0 {
		t.Fatalf("hot block table empty or unranked: %+v", p.Hot)
	}
	if len(p.Hot) > 5 {
		t.Errorf("top=5 returned %d rows", len(p.Hot))
	}
	if len(p.Folded) == 0 || !strings.HasPrefix(p.Folded[0], fib.Name+";") {
		t.Errorf("folded stack lines malformed: %v", p.Folded)
	}

	// Disabled server: /profile is an explicit 404.
	off := New(Config{Workers: 1})
	defer off.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/profile", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/profile with profiling off: status %d, want 404", rec.Code)
	}
}

// TestProfileKeysByContent sends two different images under one name:
// /profile must report two profiles told apart by content ID, each holding
// only its own run's totals.
func TestProfileKeysByContent(t *testing.T) {
	srv := New(Config{Workers: 1, GuestProfile: true})
	defer srv.Shutdown(context.Background())
	want := map[string]uint64{} // content ID → instret
	for _, rounds := range []int64{10, 20} {
		img, err := workload.Fibonacci(rounds, riscv.RV64GC, true)
		if err != nil {
			t.Fatal(err)
		}
		img.Name = "shared"
		res, err := srv.Run(context.Background(), &RunRequest{Image: img})
		if err != nil {
			t.Fatal(err)
		}
		id, err := img.ContentID()
		if err != nil {
			t.Fatal(err)
		}
		want[id] = res.Instret
	}
	if len(want) != 2 {
		t.Fatal("the two images share a content ID")
	}
	profs := srv.Profiles(5)
	if len(profs) != 2 {
		t.Fatalf("profiles for %d images, want 2", len(profs))
	}
	for _, p := range profs {
		if p.Image != "shared" {
			t.Errorf("profile image %q, want shared", p.Image)
		}
		instret, ok := want[p.ContentID]
		if !ok {
			t.Fatalf("profile content ID %q matches neither image", p.ContentID)
		}
		if p.Instret != instret {
			t.Errorf("profile %s instret %d, its run retired %d", p.ContentID[:12], p.Instret, instret)
		}
	}
}
