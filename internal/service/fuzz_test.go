package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/fuzzsvc"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

func fuzzImageWire(t *testing.T) []byte {
	t.Helper()
	img, err := workload.FuzzTarget(riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	return wire(t, img)
}

func postFuzz(t *testing.T, ts *httptest.Server, body fuzzHTTPRequest) (string, *http.Response) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/fuzz", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp
	}
	var out fuzzCreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.ID == "" {
		t.Fatal("empty campaign id")
	}
	return out.ID, resp
}

func waitDone(t *testing.T, ts *httptest.Server, id string) fuzzStatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/fuzz/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st fuzzStatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Done {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFuzzEndpointEndToEnd is the service-mode acceptance path: POST /fuzz
// against the seeded-bug guest finds the planted crash via coverage and cmp
// guidance, triages it to the minimized 8-byte reproducer, and exposes
// campaign progress, corpus, and chimera_fuzz_* metrics.
func TestFuzzEndpointEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, resp := postFuzz(t, ts, fuzzHTTPRequest{
		Image:       fuzzImageWire(t),
		MaxExecs:    30_000,
		MaxInput:    64,
		ExecBudget:  200_000,
		Seed:        1,
		StopOnCrash: true,
	})
	if id == "" {
		t.Fatalf("create failed: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Chimera-Trace") == "" {
		t.Error("campaign creation not traced")
	}
	st := waitDone(t, ts, id)
	if st.Error != "" {
		t.Fatalf("campaign error: %s", st.Error)
	}
	if len(st.Crashes) == 0 {
		t.Fatalf("no crash found: %+v", st.Snapshot)
	}
	cr := st.Crashes[0]
	if cr.Signal != 11 {
		t.Errorf("signal %d, want 11", cr.Signal)
	}
	if want := workload.FuzzTargetCrashInput(); !bytes.Equal(cr.Minimized, want) {
		t.Errorf("minimized %q, want %q", cr.Minimized, want)
	}

	// Corpus endpoint serves the coverage-novel entries.
	resp2, err := http.Get(ts.URL + "/fuzz/" + id + "/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var corpus fuzzCorpusResponse
	if err := json.NewDecoder(resp2.Body).Decode(&corpus); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(corpus.Entries) < 2 {
		t.Errorf("corpus has %d entries, want coverage staircase progress", len(corpus.Entries))
	}

	// Metrics: campaign totals folded into the chimera_fuzz_* families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, mresp)); err != nil {
		t.Fatal(err)
	}
	metrics := sb.String()
	for _, want := range []string{
		"chimera_fuzz_campaigns_total 1",
		"chimera_fuzz_crashes_unique_total 1",
		"chimera_fuzz_campaigns_active 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "chimera_fuzz_execs_total") {
		t.Error("metrics missing chimera_fuzz_execs_total")
	}

	// /stats carries the same totals.
	stats := srv.Stats()
	if stats.Fuzz.Campaigns != 1 || stats.Fuzz.Crashes != 1 || stats.Fuzz.Execs == 0 {
		t.Errorf("stats fuzz block: %+v", stats.Fuzz)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFuzzCampaignCap: the MaxCampaigns admission cap returns 429, and
// slots free as campaigns finish.
func TestFuzzCampaignCap(t *testing.T) {
	srv := New(Config{Workers: 1, MaxCampaigns: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A long-ish campaign occupies the only slot.
	id, _ := postFuzz(t, ts, fuzzHTTPRequest{
		Image: fuzzImageWire(t), MaxExecs: 1_000_000, ExecBudget: 200_000, Seed: 9,
	})
	if id == "" {
		t.Fatal("first campaign rejected")
	}
	_, resp := postFuzz(t, ts, fuzzHTTPRequest{
		Image: fuzzImageWire(t), MaxExecs: 100, Seed: 9,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-cap create returned %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFuzzBadRequests: malformed creates fail cleanly.
func TestFuzzBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]fuzzHTTPRequest{
		"no image":   {},
		"bad image":  {Image: []byte("garbage")},
		"seed flood": {Image: fuzzImageWire(t), Seeds: make([][]byte, fuzzMaxSeeds+1)},
	} {
		_, resp := postFuzz(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/fuzz/fz-999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFuzzHugeDeadlineClamped: an absurd deadline_seconds must clamp to
// fuzzDeadlineCap, not overflow the float64→Duration conversion into a
// negative timeout that expires the campaign context immediately.
func TestFuzzHugeDeadlineClamped(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _ := postFuzz(t, ts, fuzzHTTPRequest{
		Image: fuzzImageWire(t), MaxExecs: 200, ExecBudget: 200_000, Seed: 5,
		DeadlineSeconds: 1e300,
	})
	if id == "" {
		t.Fatal("create failed")
	}
	st := waitDone(t, ts, id)
	if st.Error != "" {
		t.Fatalf("campaign with huge deadline errored: %s", st.Error)
	}
	if st.Execs < 200 {
		t.Errorf("campaign ran %d execs, want the full 200 budget", st.Execs)
	}
}

// TestFuzzUnderChaos: with the chaos injector firing spurious faults into
// the guest run loop, a campaign still completes and still finds the
// planted crash — injections are absorbed, not surfaced as crashes.
func TestFuzzUnderChaos(t *testing.T) {
	srv := New(Config{
		Workers: 1,
		Chaos:   chaos.New(7, chaos.Config{Rates: map[chaos.Kind]float64{chaos.SpuriousFault: 0.01}}),
	})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _ := postFuzz(t, ts, fuzzHTTPRequest{
		Image:       fuzzImageWire(t),
		MaxExecs:    30_000,
		MaxInput:    64,
		ExecBudget:  200_000,
		Seed:        1,
		StopOnCrash: true,
	})
	if id == "" {
		t.Fatal("create failed")
	}
	st := waitDone(t, ts, id)
	if st.Error != "" {
		t.Fatalf("campaign error under chaos: %s", st.Error)
	}
	if len(st.Crashes) != 1 || st.Crashes[0].Signal != 11 {
		t.Fatalf("chaos campaign crashes: %+v", st.Crashes)
	}
}

// TestFuzzShutdownCancelsCampaigns: Shutdown ends running campaigns
// instead of hanging on them.
func TestFuzzShutdownCancelsCampaigns(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _ := postFuzz(t, ts, fuzzHTTPRequest{
		Image: fuzzImageWire(t), MaxExecs: 1 << 40, ExecBudget: 200_000, Seed: 2,
		DeadlineSeconds: 3600,
	})
	if id == "" {
		t.Fatal("create failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
}

// TestFuzzCampaignPanicIsolated: a panic inside a campaign fails that
// campaign only. The server keeps answering, GET /fuzz/{id} reports the
// panic as the campaign's error, and the admission slot is released so the
// next campaign is accepted and runs.
func TestFuzzCampaignPanicIsolated(t *testing.T) {
	srv := New(Config{Workers: 1, MaxCampaigns: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	realRun := srv.fuzz.run
	srv.fuzz.run = func(context.Context, *fuzzsvc.Campaign) error { panic("injected engine fault") }
	id, resp := postFuzz(t, ts, fuzzHTTPRequest{Image: fuzzImageWire(t), MaxExecs: 100, Seed: 3})
	if id == "" {
		t.Fatalf("create failed: %d", resp.StatusCode)
	}
	fc, ok := srv.fuzz.get(id)
	if !ok {
		t.Fatalf("campaign %s not tracked", id)
	}
	select {
	case <-fc.done:
	case <-time.After(60 * time.Second):
		t.Fatal("panicking campaign goroutine never ended")
	}
	sresp, err := http.Get(ts.URL + "/fuzz/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st fuzzStatusResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !strings.Contains(st.Error, "injected engine fault") {
		t.Fatalf("campaign error %q, want the panic value", st.Error)
	}
	if n := srv.fuzz.activeCount(); n != 0 {
		t.Fatalf("%d campaign slots still held after the panic", n)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d after a campaign panic", hresp.StatusCode)
	}

	srv.fuzz.run = realRun
	id, resp = postFuzz(t, ts, fuzzHTTPRequest{
		Image: fuzzImageWire(t), MaxExecs: 200, ExecBudget: 200_000, Seed: 3,
	})
	if id == "" {
		t.Fatalf("slot not reusable after a panic: create returned %d", resp.StatusCode)
	}
	if st := waitDone(t, ts, id); st.Error != "" || st.Execs < 200 {
		t.Fatalf("follow-up campaign: error %q, %d execs", st.Error, st.Execs)
	}
}
