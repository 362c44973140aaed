package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// testImages builds a few small SPEC-shaped vector binaries — scaled-down
// instances of the workload suite's generator so 256 concurrent requests
// stay fast under -race.
func testImages(t testing.TB, n int) []*obj.Image {
	t.Helper()
	var out []*obj.Image
	for i := 0; i < n; i++ {
		img, err := workload.BuildSpec(workload.SpecParams{
			Name: fmt.Sprintf("svc%d", i), CodeKB: 32 + 8*i, Funcs: 5,
			VecFuncs: 3, BodyInsts: 20, IndirectEvery: 3, ErrEntryEvery: 10,
			PressureFuncs: 1, HardPressureFuncs: 1, Rounds: 3, Seed: int64(900 + i),
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, img)
	}
	return out
}

func wire(t testing.TB, img *obj.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// combos enumerates the mixed method/target request matrix over the images.
func combos(images []*obj.Image) []*RewriteRequest {
	var out []*RewriteRequest
	for _, img := range images {
		for _, m := range rewriters.Methods() {
			out = append(out,
				&RewriteRequest{Method: m, Target: "rv64gc", Image: img},
				&RewriteRequest{Method: m, Target: "rv64gcv", EmptyPatch: true, Image: img})
		}
	}
	return out
}

// TestServiceConcurrentHTTP is the acceptance scenario: 256 concurrent
// /rewrite requests (mixed methods and targets) against the HTTP API under
// -race, every response byte-identical to a cold rewrite of the same
// request on a fresh server, a cache hit ratio > 0 reported via /stats, and
// zero errors.
func TestServiceConcurrentHTTP(t *testing.T) {
	images := testImages(t, 3)
	reqs := combos(images)

	// Cold references from a fresh, unshared server: a cache hit on the
	// hammered server must be byte-identical to these.
	refSrv := New(Config{Workers: 2})
	defer refSrv.Shutdown(context.Background())
	refs := make(map[int][]byte)
	for i, r := range reqs {
		res, err := refSrv.Rewrite(context.Background(), r)
		if err != nil {
			t.Fatalf("reference %s/%s: %v", r.Method, r.Target, err)
		}
		if res.CacheHit {
			t.Fatalf("reference %d unexpectedly hit the cache", i)
		}
		refs[i] = res.ImageBytes
	}

	srv := New(Config{Workers: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make(map[int][]byte)
	for i, r := range reqs {
		b, err := json.Marshal(rewriteHTTPRequest{
			Method: r.Method, Target: r.Target, EmptyPatch: r.EmptyPatch,
			Image: wire(t, r.Image),
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	const total = 256
	var wg sync.WaitGroup
	errc := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			combo := i % len(reqs)
			resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(bodies[combo]))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			var res RewriteResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errc <- fmt.Errorf("request %d: decode: %w", i, err)
				return
			}
			if !bytes.Equal(res.ImageBytes, refs[combo]) {
				errc <- fmt.Errorf("request %d (%s/%s, hit=%t): output differs from cold reference",
					i, reqs[combo].Method, reqs[combo].Target, res.CacheHit)
				return
			}
			if _, err := obj.ReadImage(bytes.NewReader(res.ImageBytes)); err != nil {
				errc <- fmt.Errorf("request %d: result not parseable: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.HitRatio <= 0 {
		t.Errorf("cache hit ratio %v, want > 0 (hits=%d misses=%d)",
			st.Cache.HitRatio, st.Cache.Hits, st.Cache.Misses)
	}
	if got := st.Endpoints["rewrite"].Count; got != total {
		t.Errorf("rewrite endpoint count %d, want %d", got, total)
	}
	if len(st.Errors) != 0 {
		t.Errorf("unexpected endpoint errors: %v", st.Errors)
	}
	// 24 distinct requests, 256 calls: the pool must have executed far
	// fewer rewrites than calls (cache + singleflight).
	if st.Completed >= total {
		t.Errorf("pool executed %d jobs for %d requests; cache/singleflight not engaged", st.Completed, total)
	}
}

// TestServiceSingleflight fires identical cold requests concurrently and
// checks they shared work instead of each rewriting.
func TestServiceSingleflight(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	req := &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: img}

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Rewrite(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := srv.Stats()
	if st.Completed >= n {
		t.Errorf("%d pool executions for %d identical requests; singleflight not engaged", st.Completed, n)
	}
	if st.Deduped+st.Cache.Hits == 0 {
		t.Error("no request was deduplicated or served from cache")
	}
}

// TestServiceShutdownDrains checks graceful shutdown: every accepted
// request completes, requests after the gate are rejected.
func TestServiceShutdownDrains(t *testing.T) {
	images := testImages(t, 2)
	srv := New(Config{Workers: 2, QueueDepth: 64})

	// 16 distinct cold requests (methods × targets × images) keep the pool
	// busy while we shut down.
	reqs := combos(images)
	var wg sync.WaitGroup
	errc := make(chan error, len(reqs))
	for _, r := range reqs {
		wg.Add(1)
		go func(r *RewriteRequest) {
			defer wg.Done()
			res, err := srv.Rewrite(context.Background(), r)
			if err != nil {
				errc <- err
				return
			}
			if len(res.ImageBytes) == 0 {
				errc <- errors.New("empty result")
			}
		}(r)
	}

	// Wait until every request is accepted into the queue, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Accepted+srv.Stats().Cache.Hits+srv.Stats().Deduped < uint64(len(reqs)) {
		if time.Now().After(deadline) {
			t.Fatalf("requests not accepted in time: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("in-flight request dropped: %v", err)
	}

	// The gate is down now. A cache hit is allowed post-shutdown (no pool
	// work); builds are reproducible, so force a genuine miss with an image
	// no earlier request could have cached.
	fresh, err := workload.BuildSpec(workload.SpecParams{
		Name: "svc-post-shutdown", CodeKB: 32, Funcs: 5,
		VecFuncs: 3, BodyInsts: 20, IndirectEvery: 3, ErrEntryEvery: 10,
		PressureFuncs: 1, HardPressureFuncs: 1, Rounds: 3, Seed: 4242,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Rewrite(context.Background(),
		&RewriteRequest{Method: "armore", Target: "rv64gcv", EmptyPatch: true, Image: fresh}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown cold request: got %v, want ErrShuttingDown", err)
	}
}

// TestServiceCancellation cancels a request while it waits in the queue.
func TestServiceCancellation(t *testing.T) {
	images := testImages(t, 2)
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer srv.Shutdown(context.Background())

	// Occupy the single worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Rewrite(context.Background(), &RewriteRequest{Method: "chbp", Target: "rv64gc", Image: images[0]})
	}()
	for srv.Stats().Accepted == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Rewrite(ctx, &RewriteRequest{Method: "safer", Target: "rv64gc", Image: images[1]})
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled request: got %v, want context.Canceled", err)
	}
	wg.Wait()
}

// TestServiceCacheEviction forces LRU eviction with a tiny byte budget.
func TestServiceCacheEviction(t *testing.T) {
	images := testImages(t, 3)
	srv := New(Config{Workers: 2, CacheBytes: 1}) // every insert over budget
	defer srv.Shutdown(context.Background())
	for _, img := range images {
		if _, err := srv.Rewrite(context.Background(),
			&RewriteRequest{Method: "chbp", Target: "rv64gc", Image: img}); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Cache.Evictions == 0 {
		t.Errorf("no evictions under a 1-byte budget: %+v", st.Cache)
	}
	if st.Cache.Entries > 1 {
		t.Errorf("budget 1 byte holds %d entries", st.Cache.Entries)
	}
}

// TestServiceRunHTTP executes an image through POST /run and cross-checks
// the result against a direct kernel run.
func TestServiceRunHTTP(t *testing.T) {
	img, err := workload.Fibonacci(10, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}

	v, err := kernel.VariantFromImage(img.Clone())
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.NewProcess(img.Name, []kernel.Variant{v})
	if err != nil {
		t.Fatal(err)
	}
	wantCycles, err := bench.RunOnCore(p, img.ISA)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(runHTTPRequest{Image: wire(t, img)})
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != p.ExitCode {
		t.Errorf("exit code %d, want %d", res.ExitCode, p.ExitCode)
	}
	if res.Cycles != wantCycles {
		t.Errorf("cycles %d, want %d", res.Cycles, wantCycles)
	}

	// The run must report the hart's block-cache activity, and /stats must
	// aggregate it.
	if res.Blocks.Dispatches == 0 || res.Blocks.Retired == 0 {
		t.Errorf("run result block counters empty: %+v", res.Blocks)
	}
	if res.EmulatedMIPS <= 0 {
		t.Errorf("emulated MIPS not reported: %v", res.EmulatedMIPS)
	}
	st := srv.Stats()
	if st.Emulator.Runs != 1 || st.Emulator.Instret != res.Instret {
		t.Errorf("stats emulator aggregate %+v, want 1 run with instret %d", st.Emulator, res.Instret)
	}
	if st.Emulator.Blocks != res.Blocks {
		t.Errorf("stats blocks %+v != run blocks %+v", st.Emulator.Blocks, res.Blocks)
	}
	if st.Emulator.BlockHitRatio <= 0 || st.Emulator.RetiredPerDispatch <= 0 {
		t.Errorf("derived block metrics not populated: %+v", st.Emulator)
	}
}

// TestServiceHTTPErrors exercises the failure paths of the HTTP layer.
func TestServiceHTTPErrors(t *testing.T) {
	img := testImages(t, 1)[0]
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/rewrite", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode
	}

	okImage := wire(t, img)
	cases := []struct {
		name string
		body rewriteHTTPRequest
		want int
	}{
		{"unknown method", rewriteHTTPRequest{Method: "nope", Target: "rv64gc", Image: okImage}, 400},
		{"unknown target", rewriteHTTPRequest{Method: "chbp", Target: "armv8", Image: okImage}, 400},
		{"missing image", rewriteHTTPRequest{Method: "chbp", Target: "rv64gc"}, 400},
		{"corrupt image", rewriteHTTPRequest{Method: "chbp", Target: "rv64gc", Image: []byte("CHIMnonsense")}, 400},
	}
	for _, c := range cases {
		b, _ := json.Marshal(c.body)
		if got := post(b); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	if got := post([]byte("{not json")); got != 400 {
		t.Errorf("malformed json: status %d, want 400", got)
	}
	resp, err := http.Get(ts.URL + "/rewrite")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rewrite: status %d, want 405", resp.StatusCode)
	}

	// Health flips to draining after shutdown.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}
	srv.Shutdown(context.Background())
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: status %d, want 503", resp.StatusCode)
	}
}
