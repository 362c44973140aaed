package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/telemetry"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// chaosCfg builds an injector firing only the given kinds at rate 1.
func chaosCfg(stall time.Duration, kinds ...chaos.Kind) *chaos.Injector {
	rates := make(map[chaos.Kind]float64, len(kinds))
	for _, k := range kinds {
		rates[k] = 1
	}
	return chaos.New(1, chaos.Config{Rates: rates, Stall: stall})
}

// TestHTTPServerTimeouts checks that the production http.Server carries
// hardened timeouts, and that a slow-loris client (headers dribbled
// forever) gets its connection closed by ReadHeaderTimeout instead of
// pinning a goroutine.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	hs := srv.HTTPServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 ||
		hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 {
		t.Fatalf("HTTPServer missing hardened limits: %+v", hs)
	}

	// Shrink the header timeout so the loris test is fast.
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a request line and then go silent mid-headers.
	if _, err := conn.Write([]byte("POST /rewrite HTTP/1.1\r\nHost: loris\r\nX-Slow:")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed (or answered 408 and closed)
		}
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("slow-loris connection lived %v; ReadHeaderTimeout not enforced", waited)
	}
}

// TestShutdownBoundedWithHungWorker proves a stalled worker cannot block
// shutdown: Shutdown(ctx) returns when ctx ends even though the pool is
// still draining, and the hung request itself still completes afterwards.
func TestShutdownBoundedWithHungWorker(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{
		Workers: 1,
		Chaos:   chaosCfg(500*time.Millisecond, chaos.RewriteStall),
	})

	done := make(chan error, 1)
	go func() {
		res, err := srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: img})
		if err == nil && len(res.ImageBytes) == 0 {
			err = errors.New("empty result")
		}
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never started running")
		}
		time.Sleep(time.Millisecond)
	}

	// The only worker is now stalled for 500ms. A 50ms shutdown must give
	// up on waiting — promptly, with the context's error.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with hung worker: got %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("Shutdown blocked %v on a hung worker", waited)
	}

	// The accepted request still drains to completion in the background.
	if err := <-done; err != nil {
		t.Fatalf("hung request dropped during bounded shutdown: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("final drain: %v", err)
	}
}

// TestPanicIsolation checks that a panicking rewriter fails only its own
// request: the response degrades to the original image, the worker
// survives to serve further requests, and /stats records the panics.
func TestPanicIsolation(t *testing.T) {
	images := testImages(t, 3)
	srv := New(Config{
		Workers:    1,
		MaxRetries: -1, // no retries: every panic surfaces as one degradation
		Chaos:      chaosCfg(0, chaos.RewritePanic),
	})
	defer srv.Shutdown(context.Background())

	for i, img := range images {
		res, err := srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: img})
		if err != nil {
			t.Fatalf("request %d: %v (panic escaped isolation)", i, err)
		}
		if !res.Degraded || !strings.Contains(res.DegradedReason, "panic") {
			t.Fatalf("request %d: not degraded by panic: %+v", i, res)
		}
		if !bytes.Equal(res.ImageBytes, wire(t, img)) {
			t.Fatalf("request %d: degraded bytes are not the original image", i)
		}
	}
	st := srv.Stats()
	if st.Faults.Panics != uint64(len(images)) {
		t.Errorf("panics %d, want %d", st.Faults.Panics, len(images))
	}
	if st.Faults.LastPanic != chaos.PanicValue {
		t.Errorf("last panic %q, want %q", st.Faults.LastPanic, chaos.PanicValue)
	}
	if st.Faults.Degradations != uint64(len(images)) {
		t.Errorf("degradations %d, want %d", st.Faults.Degradations, len(images))
	}
}

// TestQuarantineAndDegradation drives one rewriter config into its circuit
// breaker: failed requests degrade to the original image, the breaker
// opens after the threshold, quarantined requests degrade without touching
// the pool, and health reports "degraded".
func TestQuarantineAndDegradation(t *testing.T) {
	images := testImages(t, 3)
	srv := New(Config{
		Workers:         1,
		MaxRetries:      1,
		RetryBackoff:    time.Millisecond,
		QuarantineAfter: 2,
		QuarantineFor:   time.Hour,
		Chaos:           chaosCfg(0, chaos.RewriteTransient),
	})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two failing requests trip the breaker (QuarantineAfter=2).
	for i := 0; i < 2; i++ {
		res, err := srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: images[i]})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !res.Degraded || !strings.Contains(res.DegradedReason, "2 attempts") {
			t.Fatalf("request %d: want degradation after retries, got %+v", i, res)
		}
		if !bytes.Equal(res.ImageBytes, wire(t, images[i])) {
			t.Fatalf("request %d: degraded bytes are not the original image", i)
		}
	}

	// The config is quarantined now: the next request degrades immediately,
	// without submitting any pool work.
	before := srv.Stats().Accepted
	res, err := srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: images[2]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !strings.Contains(res.DegradedReason, "quarantined") {
		t.Fatalf("quarantined request: %+v", res)
	}
	if after := srv.Stats().Accepted; after != before {
		t.Errorf("quarantined request submitted pool work (accepted %d -> %d)", before, after)
	}

	st := srv.Stats()
	if st.Faults.QuarantineTrips != 1 || st.Faults.QuarantinedConfigs != 1 {
		t.Errorf("breaker state: %+v", st.Faults)
	}
	if st.Health != HealthDegraded || srv.Health() != HealthDegraded {
		t.Errorf("health %q, want %q", st.Health, HealthDegraded)
	}
	if st.Faults.Degradations != 3 {
		t.Errorf("degradations %d, want 3", st.Faults.Degradations)
	}

	// /healthz stays 200 while degraded (the server answers everything, just
	// some of it via fallback) but reports the state.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while degraded: status %d, want 200", resp.StatusCode)
	}
	var hb struct {
		Status      string `json:"status"`
		Quarantined int    `json:"quarantined_configs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != HealthDegraded || hb.Quarantined != 1 {
		t.Errorf("healthz body %+v", hb)
	}
}

// TestBreakerHalfOpen exercises the breaker state machine directly: open
// after the threshold, half-open probe after cooldown, instant re-open on
// a failed probe, full close on a successful one.
func TestBreakerHalfOpen(t *testing.T) {
	b := newBreakers(2, time.Minute, telemetry.NewRegistry().Counter("chimera_breaker_trips_total", "trips"))
	now := time.Now()
	if b.failure("k", now); b.quarantined("k", now) {
		t.Fatal("open after one failure")
	}
	if !b.failure("k", now) {
		t.Fatal("second failure did not trip")
	}
	if !b.quarantined("k", now) {
		t.Fatal("not quarantined after trip")
	}
	// Cooldown elapses: the next check admits a half-open probe.
	later := now.Add(2 * time.Minute)
	if b.quarantined("k", later) {
		t.Fatal("still quarantined after cooldown")
	}
	// A failed probe re-opens immediately (single failure suffices).
	if !b.failure("k", later) {
		t.Fatal("failed probe did not re-open")
	}
	if !b.quarantined("k", later) {
		t.Fatal("not quarantined after failed probe")
	}
	// Successful probe after another cooldown closes it fully.
	final := later.Add(2 * time.Minute)
	if b.quarantined("k", final) {
		t.Fatal("still quarantined before successful probe")
	}
	b.success("k")
	if b.failure("k", final); b.quarantined("k", final) {
		t.Fatal("one failure after success re-opened a closed breaker")
	}
	if got := b.tripCount(); got != 2 {
		t.Errorf("trips %d, want 2", got)
	}
}

// TestCacheCorruptionEviction flips a bit in every freshly-cached entry and
// checks the SHA-256 verification on the hit path: corrupted entries are
// evicted and re-rewritten, and clients always receive pristine bytes.
func TestCacheCorruptionEviction(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{
		Workers: 1,
		Chaos:   chaosCfg(0, chaos.CacheCorrupt),
	})
	defer srv.Shutdown(context.Background())

	req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: img}
	first, err := srv.Rewrite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Degraded || first.CacheHit {
		t.Fatalf("cold rewrite: %+v", first)
	}
	// The stored entry was corrupted after insertion; the next lookup must
	// detect it, evict, and rewrite again — byte-identical, not a hit.
	second, err := srv.Rewrite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Error("corrupted entry served as a cache hit")
	}
	if !bytes.Equal(first.ImageBytes, second.ImageBytes) {
		t.Error("re-rewrite after corruption is not byte-identical")
	}
	st := srv.Stats()
	if st.Cache.CorruptEvictions == 0 || st.Faults.CacheCorruptions == 0 {
		t.Errorf("corruption not recorded: cache=%+v faults=%+v", st.Cache, st.Faults)
	}
}

// TestRunDeadlineAndBudget points /run at a genuine unbounded loop twice:
// once with the instruction budget armed (422, ErrBudget) and once with
// only the request deadline standing (504, ErrDeadline).
func TestRunDeadlineAndBudget(t *testing.T) {
	img, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(runHTTPRequest{Image: wire(t, img)})

	post := func(srv *Server) int {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	budgetSrv := New(Config{
		Workers:       1,
		RunMaxInstret: 10_000,
		Chaos:         chaosCfg(0, chaos.EmuLoop),
	})
	defer budgetSrv.Shutdown(context.Background())
	if got := post(budgetSrv); got != http.StatusUnprocessableEntity {
		t.Errorf("budgeted unbounded run: status %d, want 422", got)
	}
	if st := budgetSrv.Stats(); st.Faults.BudgetStops != 1 {
		t.Errorf("budget stops %d, want 1", st.Faults.BudgetStops)
	}

	deadlineSrv := New(Config{
		Workers:        1,
		RequestTimeout: 80 * time.Millisecond,
		RunMaxInstret:  -1, // watchdog off: only the deadline can stop the loop
		Chaos:          chaosCfg(0, chaos.EmuLoop),
	})
	defer deadlineSrv.Shutdown(context.Background())
	start := time.Now()
	if got := post(deadlineSrv); got != http.StatusGatewayTimeout {
		t.Errorf("deadlined unbounded run: status %d, want 504", got)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("deadlined run answered after %v; slices not honoring ctx", waited)
	}
	if st := deadlineSrv.Stats(); st.Faults.DeadlineExceeded != 1 {
		t.Errorf("deadline hits %d, want 1", st.Faults.DeadlineExceeded)
	}
}

// TestChaosSoak is the acceptance soak: a mixed /rewrite + /run request
// storm against a server with every fault class firing, asserting zero
// crashes, zero hung requests, every failed rewrite answered via
// degradation with the original bytes, bit-exact /run results whenever the
// guest survives, and /stats accounting for every injected fault.
//
// Knobs (CI and reproduction):
//
//	CHIMERA_CHAOS_SOAK=1        full 1000-request soak (default 200)
//	CHIMERA_SOAK_SECONDS=N      time-boxed: issue requests for N seconds
//	CHIMERA_SOAK_SEED=random|N  randomize or pin the chaos seed
//	CHIMERA_SOAK_REPORT=path    write a JSON failure report on failure
func TestChaosSoak(t *testing.T) {
	n := 200
	if os.Getenv("CHIMERA_CHAOS_SOAK") != "" {
		n = 1000
	}
	seed := int64(20260806)
	switch sv := os.Getenv("CHIMERA_SOAK_SEED"); {
	case sv == "random":
		seed = time.Now().UnixNano()
	case sv != "":
		if v, err := strconv.ParseInt(sv, 10, 64); err == nil {
			seed = v
		}
	}
	var timebox time.Time
	if sv := os.Getenv("CHIMERA_SOAK_SECONDS"); sv != "" {
		if secs, err := strconv.Atoi(sv); err == nil && secs > 0 {
			timebox = time.Now().Add(time.Duration(secs) * time.Second)
		}
	}
	t.Logf("chaos soak: n=%d seed=%d timebox=%v", n, seed, !timebox.IsZero())

	// Rates are high because the cache and singleflight legitimately absorb
	// most traffic: only cold rewrites and corruption-forced re-rewrites
	// roll the rewrite-path dice at all.
	inj := chaos.New(seed, chaos.Config{
		Rates: map[chaos.Kind]float64{
			chaos.RewritePanic:     0.20,
			chaos.RewriteStall:     0.15,
			chaos.RewriteTransient: 0.40,
			chaos.CacheCorrupt:     0.50,
			chaos.SpuriousFault:    0.05,
			chaos.EmuLoop:          0.15,
		},
		Stall: 5 * time.Millisecond,
	})
	const reqTimeout = 30 * time.Second
	srv := New(Config{
		Workers:         4,
		RequestTimeout:  reqTimeout,
		MaxRetries:      2,
		RetryBackoff:    time.Millisecond,
		QuarantineAfter: 3,
		QuarantineFor:   50 * time.Millisecond,
		RunMaxInstret:   4_000_000,
		Chaos:           inj,
	})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Chaos-free cold references: every non-degraded rewrite response must
	// be byte-identical to these; every degraded one to the original image.
	images := testImages(t, 2)
	refSrv := New(Config{Workers: 2})
	defer refSrv.Shutdown(context.Background())
	type rwCase struct {
		body     []byte
		ref      []byte // chaos-free rewrite output
		original []byte // the input image's wire form
	}
	var rw []rwCase
	for _, img := range images {
		for _, m := range rewriters.Methods() {
			ref, err := refSrv.Rewrite(context.Background(), &RewriteRequest{Method: m, Target: "rv64gc", Image: img})
			if err != nil {
				t.Fatalf("reference %s: %v", m, err)
			}
			b, _ := json.Marshal(rewriteHTTPRequest{Method: m, Target: "rv64gc", Image: wire(t, img)})
			rw = append(rw, rwCase{body: b, ref: ref.ImageBytes, original: wire(t, img)})
		}
	}

	runImg, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := kernel.VariantFromImage(runImg.Clone())
	if err != nil {
		t.Fatal(err)
	}
	refP, err := kernel.NewProcess(runImg.Name, []kernel.Variant{rv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.RunOnCore(refP, runImg.ISA); err != nil {
		t.Fatal(err)
	}
	runBody, _ := json.Marshal(runHTTPRequest{Image: wire(t, runImg)})

	var (
		mu       sync.Mutex
		failures []string
		degraded atomic.Uint64
		budget   atomic.Uint64
		deadline atomic.Uint64
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	issue := func(i int) {
		start := time.Now()
		var resp *http.Response
		var err error
		isRun := i%3 == 2
		if isRun {
			resp, err = http.Post(ts.URL+"/run", "application/json", bytes.NewReader(runBody))
		} else {
			resp, err = http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(rw[i%len(rw)].body))
		}
		if err != nil {
			fail("request %d: transport: %v", i, err)
			return
		}
		defer resp.Body.Close()
		if waited := time.Since(start); waited > reqTimeout+20*time.Second {
			fail("request %d: hung %v past the %v deadline", i, waited, reqTimeout)
		}
		if isRun {
			switch resp.StatusCode {
			case http.StatusOK:
				var res RunResult
				if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
					fail("run %d: decode: %v", i, err)
					return
				}
				// Transparency oracle: injected spurious faults must not
				// change what the guest computed.
				if res.ExitCode != refP.ExitCode || res.Output != string(refP.Output) || res.Instret != refP.CPU.Instret {
					fail("run %d: diverged under chaos: exit=%d/%d instret=%d/%d",
						i, res.ExitCode, refP.ExitCode, res.Instret, refP.CPU.Instret)
				}
			case http.StatusUnprocessableEntity:
				budget.Add(1)
			case http.StatusGatewayTimeout:
				deadline.Add(1)
			default:
				fail("run %d: status %d", i, resp.StatusCode)
			}
			return
		}
		if resp.StatusCode != http.StatusOK {
			fail("rewrite %d: status %d (rewrites must always be answered)", i, resp.StatusCode)
			return
		}
		var res RewriteResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			fail("rewrite %d: decode: %v", i, err)
			return
		}
		c := rw[i%len(rw)]
		if res.Degraded {
			degraded.Add(1)
			if !bytes.Equal(res.ImageBytes, c.original) {
				fail("rewrite %d: degraded bytes are not the original image", i)
			}
			if res.DegradedReason == "" {
				fail("rewrite %d: degraded without a reason", i)
			}
		} else if !bytes.Equal(res.ImageBytes, c.ref) {
			fail("rewrite %d: output differs from chaos-free reference (hit=%t)", i, res.CacheHit)
		}
	}

	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	issued := 0
	for {
		if timebox.IsZero() {
			if issued >= n {
				break
			}
		} else if time.Now().After(timebox) {
			break
		}
		i := issued
		issued++
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			issue(i)
		}()
	}
	wg.Wait()

	st := srv.Stats()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if path := os.Getenv("CHIMERA_SOAK_REPORT"); path != "" {
			rep, _ := json.MarshalIndent(map[string]any{
				"seed": seed, "requests": issued, "failures": failures,
				"stats": st, "chaos": inj.Counts(),
			}, "", "  ")
			os.WriteFile(path, rep, 0o644)
		}
	})

	for _, f := range failures {
		t.Error(f)
	}
	t.Logf("soak: %d requests, %d degraded, %d budget-stopped, chaos=%v",
		issued, degraded.Load(), budget.Load(), inj.Counts())

	// Accounting: every injected fault shows up in /stats, exactly.
	if st.Faults.Panics != inj.Fired(chaos.RewritePanic) {
		t.Errorf("panics: stats %d != injected %d", st.Faults.Panics, inj.Fired(chaos.RewritePanic))
	}
	if st.Faults.BudgetStops != inj.Fired(chaos.EmuLoop) {
		t.Errorf("budget stops: stats %d != injected loops %d", st.Faults.BudgetStops, inj.Fired(chaos.EmuLoop))
	}
	if got := budget.Load() + deadline.Load(); got != st.Faults.BudgetStops+st.Faults.DeadlineExceeded {
		t.Errorf("client-observed run failures %d != stats %d",
			got, st.Faults.BudgetStops+st.Faults.DeadlineExceeded)
	}
	if degraded.Load() != st.Faults.Degradations {
		t.Errorf("client-observed degradations %d != stats %d", degraded.Load(), st.Faults.Degradations)
	}
	if st.Cache.CorruptEvictions > inj.Fired(chaos.CacheCorrupt) {
		t.Errorf("corrupt evictions %d exceed injected corruptions %d",
			st.Cache.CorruptEvictions, inj.Fired(chaos.CacheCorrupt))
	}
	if st.Faults.CacheCorruptions != st.Cache.CorruptEvictions {
		t.Errorf("fault block corruption count %d != cache block %d",
			st.Faults.CacheCorruptions, st.Cache.CorruptEvictions)
	}
	if st.Errors["rewrite"] != 0 {
		t.Errorf("rewrite errors %d; failed rewrites must degrade, not error", st.Errors["rewrite"])
	}
	for _, k := range []chaos.Kind{
		chaos.RewritePanic, chaos.RewriteStall, chaos.RewriteTransient,
		chaos.CacheCorrupt, chaos.SpuriousFault, chaos.EmuLoop,
	} {
		if inj.Fired(k) == 0 {
			t.Errorf("fault kind %v never fired over %d requests", k, issued)
		}
	}
	if chm := st.Chaos; chm == nil || chm[chaos.RewritePanic.String()] != inj.Fired(chaos.RewritePanic) {
		t.Errorf("stats chaos block missing or stale: %v", chm)
	}

	// Telemetry: /metrics is rendered from the same registry as /stats, so
	// the injected fault counts must appear there too, exactly.
	mx := scrape(t, srv.Handler())
	for _, chk := range []struct {
		name string
		want uint64
	}{
		{"chimera_worker_panics_total", inj.Fired(chaos.RewritePanic)},
		{"chimera_run_budget_stops_total", st.Faults.BudgetStops},
		{"chimera_deadline_exceeded_total", st.Faults.DeadlineExceeded},
		{"chimera_cache_corrupt_evictions_total", st.Cache.CorruptEvictions},
		{"chimera_degradations_total", st.Faults.Degradations},
		{"chimera_breaker_trips_total", st.Faults.QuarantineTrips},
	} {
		if got := mx[chk.name]; got != float64(chk.want) {
			t.Errorf("/metrics %s = %v, want %d", chk.name, got, chk.want)
		}
	}
	// Spurious faults fold into the registry when a run completes; runs the
	// deadline killed take their kernel counters with them, so the metric is
	// bounded by — not equal to — the injected count.
	if got := mx["chimera_kernel_spurious_faults_total"]; got > float64(inj.Fired(chaos.SpuriousFault)) {
		t.Errorf("/metrics spurious faults %v exceed injected %d", got, inj.Fired(chaos.SpuriousFault))
	}
}
