package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/service"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// serveCacheBytes holds the whole catalog (about 12 MiB), so every /rewrite
// in the timed phase is a memory-store hit.
const serveCacheBytes = 64 << 20

// serveTraceCapacity is the traced server's trace ring, large enough to hold
// every traced request of a run, so traces are collected after the load
// stops.
const serveTraceCapacity = 1 << 16

// rewriteBody and runBody are the /rewrite and /run JSON request bodies.
type rewriteBody struct {
	Method     string `json:"method"`
	Target     string `json:"target"`
	EmptyPatch bool   `json:"empty_patch,omitempty"`
	Image      []byte `json:"image"`
}

type runBody struct {
	ISA   string `json:"isa"`
	Image []byte `json:"image"`
}

// hitEntry is one catalog rewrite: its pre-encoded request and the bytes
// the set-up's cold rewrite returned.
type hitEntry struct {
	body  []byte
	want  []byte
	large bool
	input *obj.Image
}

// runEntry is one /run request with the expected result.
type runEntry struct {
	body       []byte
	kind       string
	image      *obj.Image
	wantExit   uint64
	wantOutput string
	wantCycles uint64
}

// serveEnv is one serve_mixed set-up: a server behind an httptest listener
// and a keep-alive client with one connection per load client.
type serveEnv struct {
	srv       *service.Server
	hs        *httptest.Server
	transport *http.Transport
	client    *http.Client
	hits      [serveEntries]hitEntry // by Zipf rank
	runs      []runEntry
	// Deterministic outcomes of the set-up.
	cycleOverheadPct float64
	catalogDigest    string
	cyclesDigest     string
}

func (e *serveEnv) close() {
	e.transport.CloseIdleConnections()
	e.hs.Close()
	shutdown(e.srv)
}

// setupServe generates the catalog, starts the server, rewrites every
// catalog entry cold, and runs every /run image once in process to fix the
// expected exit code, output and cycle count. Images that disagree with
// their original are reported through fail.
func setupServe(seed int64, traceCap int, fail *failures) (*serveEnv, error) {
	srv := service.New(service.Config{CacheBytes: serveCacheBytes, TraceCapacity: traceCap})
	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	env := &serveEnv{
		srv:       srv,
		hs:        httptest.NewServer(srv.Handler()),
		transport: transport,
		client:    &http.Client{Transport: transport},
	}
	ctx := context.Background()
	var images [serveImages]*obj.Image
	var wire [serveImages][]byte
	for j := range images {
		img, err := workload.BuildSpec(serveSpec(seed, j), true)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("catalog image %d: %w", j, err)
		}
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			env.close()
			return nil, fmt.Errorf("catalog image %d: %w", j, err)
		}
		images[j], wire[j] = img, buf.Bytes()
	}
	var entries [serveEntries]hitEntry
	digest := sha256.New()
	for e := range entries {
		j, v := e/serveVariants, serveVariantList[e%serveVariants]
		res, err := srv.Rewrite(ctx, &service.RewriteRequest{Method: v.method, Target: v.target, EmptyPatch: v.emptyPatch, Image: images[j]})
		switch {
		case err != nil:
			fail.add("catalog %d/%s: %v", j, v.name, err)
		case res.Degraded:
			fail.add("catalog %d/%s: degraded: %s", j, v.name, res.DegradedReason)
		}
		body, err := json.Marshal(rewriteBody{Method: v.method, Target: v.target, EmptyPatch: v.emptyPatch, Image: wire[j]})
		if err != nil {
			env.close()
			return nil, err
		}
		entries[e] = hitEntry{body: body, large: serveLarge(e), input: images[j]}
		if res != nil {
			entries[e].want = res.ImageBytes
			sum := sha256.Sum256(res.ImageBytes)
			digest.Write(sum[:])
		}
	}
	env.catalogDigest = hex.EncodeToString(digest.Sum(nil))[:16]
	for r, e := range serveRankTable() {
		env.hits[r] = entries[e]
	}

	var origCycles, emptyCycles uint64
	cycles := sha256.New()
	for _, j := range serveRunImages {
		orig, err := srv.Run(ctx, &service.RunRequest{ISA: "rv64gcv", Image: images[j]})
		if err != nil {
			fail.add("run image %d original: %v", j, err)
			continue
		}
		kinds := []struct {
			kind, isa string
			image     []byte
		}{
			{"original", "rv64gcv", wire[j]},
			{"chbp-down", "rv64gc", entries[j*serveVariants].want},
			{"chbp-empty", "rv64gcv", entries[j*serveVariants+1].want},
		}
		for _, k := range kinds {
			img, err := obj.ReadImage(bytes.NewReader(k.image))
			if err != nil {
				fail.add("run image %d %s: %v", j, k.kind, err)
				continue
			}
			res, err := srv.Run(ctx, &service.RunRequest{ISA: k.isa, Image: img})
			if err != nil {
				fail.add("run image %d %s: %v", j, k.kind, err)
				continue
			}
			if res.ExitCode != orig.ExitCode || res.Output != orig.Output {
				fail.add("run image %d %s: exit %d output %q, original exit %d output %q", j, k.kind, res.ExitCode, res.Output, orig.ExitCode, orig.Output)
			}
			switch k.kind {
			case "original":
				origCycles += res.Cycles
			case "chbp-empty":
				emptyCycles += res.Cycles
			}
			fmt.Fprintf(cycles, "%d/%s:%d;", j, k.kind, res.Cycles)
			body, err := json.Marshal(runBody{ISA: k.isa, Image: k.image})
			if err != nil {
				env.close()
				return nil, err
			}
			env.runs = append(env.runs, runEntry{
				body: body, kind: k.kind, image: img,
				wantExit: orig.ExitCode, wantOutput: orig.Output, wantCycles: res.Cycles,
			})
		}
	}
	env.cycleOverheadPct = (ratio(float64(emptyCycles), float64(origCycles)) - 1) * 100
	env.cyclesDigest = hex.EncodeToString(cycles.Sum(nil))[:16]
	return env, nil
}

// serveOp is one completed HTTP request as the client saw it.
type serveOp struct {
	op      int
	run     bool
	large   bool
	lat     time.Duration
	reqLen  int
	respLen int
	traceID string
	result  *service.RunResult // /run only
	imageKB float64            // /rewrite only: served image size
}

// servePhase is one timed stretch of the serve_mixed closed loop.
type servePhase struct {
	elapsed time.Duration
	n       int
	ops     []serveOp
	fail    failures
}

func (ph *servePhase) latencies(pick func(*serveOp) bool) samples {
	var s samples
	for i := range ph.ops {
		if pick(&ph.ops[i]) {
			s = append(s, ph.ops[i].lat)
		}
	}
	return s
}

// runServePhase drives the request mix for d. Each client draws its own
// seeded sequence: a /run with probability serveRunShare (uniform over the
// run entries), otherwise a /rewrite hit on the Zipf-ranked catalog.
func runServePhase(env *serveEnv, seed int64, phase int64, d time.Duration) *servePhase {
	type clientState struct {
		rng  *rand.Rand
		zipf *rand.Zipf
		buf  bytes.Buffer
		ops  []serveOp
		fail failures
	}
	per := make([]clientState, clients)
	for c := range per {
		per[c].rng = rand.New(rand.NewSource(mix(seed, streamServeClient, phase, int64(c))))
		per[c].zipf = rand.NewZipf(per[c].rng, serveZipfS, 1, serveEntries-1)
	}
	ph := &servePhase{}
	ph.elapsed, ph.n = closedLoop(clients, 0, d, func(c, i int) {
		cs := &per[c]
		isRun := cs.rng.Float64() < serveRunShare
		var (
			url  string
			body []byte
			hit  *hitEntry
			run  *runEntry
		)
		if isRun {
			run = &env.runs[cs.rng.Intn(len(env.runs))]
			url, body = env.hs.URL+"/run", run.body
		} else {
			hit = &env.hits[cs.zipf.Uint64()]
			url, body = env.hs.URL+"/rewrite", hit.body
		}
		start := time.Now()
		resp, err := env.client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			cs.fail.add("request %d: %v", i, err)
			return
		}
		cs.buf.Reset()
		_, err = io.Copy(&cs.buf, resp.Body)
		resp.Body.Close()
		lat := time.Since(start)
		if err != nil {
			cs.fail.add("request %d: reading body: %v", i, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			cs.fail.add("request %d %s: HTTP %d: %.200s", i, url, resp.StatusCode, cs.buf.String())
			return
		}
		op := serveOp{op: i, run: isRun, lat: lat, reqLen: len(body), respLen: cs.buf.Len(), traceID: resp.Header.Get("X-Chimera-Trace")}
		if isRun {
			var res service.RunResult
			if err := json.Unmarshal(cs.buf.Bytes(), &res); err != nil {
				cs.fail.add("request %d /run: %v", i, err)
				return
			}
			if res.ExitCode != run.wantExit || res.Output != run.wantOutput || res.Cycles != run.wantCycles {
				cs.fail.add("request %d /run %s: exit %d cycles %d, want exit %d cycles %d", i, run.kind, res.ExitCode, res.Cycles, run.wantExit, run.wantCycles)
				return
			}
			op.result = &res
		} else {
			var res service.RewriteResult
			if err := json.Unmarshal(cs.buf.Bytes(), &res); err != nil {
				cs.fail.add("request %d /rewrite: %v", i, err)
				return
			}
			if !res.CacheHit || res.Degraded || !bytes.Equal(res.ImageBytes, hit.want) {
				cs.fail.add("request %d /rewrite: cache_hit=%v degraded=%v identical=%v", i, res.CacheHit, res.Degraded, bytes.Equal(res.ImageBytes, hit.want))
				return
			}
			op.large = hit.large
			op.imageKB = float64(len(res.ImageBytes)) / 1024
		}
		cs.ops = append(cs.ops, op)
	})
	for c := range per {
		ph.ops = append(ph.ops, per[c].ops...)
		ph.fail.merge(per[c].fail)
	}
	return ph
}

func isHit(o *serveOp) bool { return !o.run }
func isRun(o *serveOp) bool { return o.run }
func isAny(o *serveOp) bool { return true }

func runServeMixed(o opts) (*report, error) {
	rep := newReport("serve_mixed")
	var env *serveEnv
	var setupS []float64
	for s := 0; s < setups; s++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var fail failures
		var err error
		env, err = setupServe(o.seed, -1, &fail)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		rep.Attempted += serveEntries + len(serveRunImages)*3
		rep.Failed += fail.n
		rep.check(fmt.Sprintf("setup%d_catalog_and_runs_agree", s), fail.n == 0, "%d failed %v", fail.n, fail.first)
		det := map[string]string{
			"catalog_sha256":           env.catalogDigest,
			"run_cycles_sha256":        env.cyclesDigest,
			"guest_cycle_overhead_pct": strconv.FormatFloat(env.cycleOverheadPct, 'g', -1, 64),
		}
		for k, v := range det {
			if prev, ok := rep.Det[k]; ok && prev != v {
				rep.check("setups_deterministic", false, "%s: %s then %s", k, prev, v)
			}
			rep.Det[k] = v
		}
	}
	runtime.GC()

	measure := o.dur
	if o.traced {
		measure = o.dur / 2
	}
	before := env.srv.Stats()
	g0 := readGo()
	ph := runServePhase(env, o.seed, 0, measure)
	g1 := readGo()
	after := env.srv.Stats()
	env.close()
	rep.Attempted += ph.n
	rep.Failed += ph.fail.n
	rep.check("requests_succeed", ph.fail.n == 0, "%d of %d failed %v", ph.fail.n, ph.n, ph.fail.first)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	rep.check("store_hit_ratio_is_1", misses == 0 && hits > 0, "hits=%d misses=%d", hits, misses)

	all, hitLat, runLat := ph.latencies(isAny), ph.latencies(isHit), ph.latencies(isRun)
	tput := float64(len(all)) / ph.elapsed.Seconds()
	p50 := ms(all.percentile(0.50))
	if !o.traced {
		large := len(ph.latencies(func(o *serveOp) bool { return o.large }))
		rep.named("serve_req_per_s", tput, "1/s", len(all))
		rep.named("hit_p50_ms", ms(hitLat.percentile(0.50)), "ms", len(hitLat))
		rep.p99("hit_p99_ms", hitLat)
		rep.named("run_p50_ms", ms(runLat.percentile(0.50)), "ms", len(runLat))
		rep.p99("run_p99_ms", runLat)
		rep.named("large_hit_share", ratio(float64(large), float64(len(hitLat))), "ratio", len(hitLat))
		rep.named("guest_cycle_overhead_pct", env.cycleOverheadPct, "%", len(serveRunImages))
		rep.gate("ops_per_s", tput, "1/s", len(all))
		rep.gate("latency_p50_ms", p50, "ms", len(all))
		rep.finishSetup(setupS)
		return rep, nil
	}

	goLayers(rep, g0, g1, ph.n)
	var fail failures
	tenv, err := setupServe(o.seed, serveTraceCapacity, &fail)
	if err != nil {
		return nil, err
	}
	rep.Attempted += serveEntries + len(serveRunImages)*3
	rep.Failed += fail.n
	rep.check("traced_setup_catalog_and_runs_agree", fail.n == 0, "%d failed %v", fail.n, fail.first)
	tbefore := tenv.srv.Stats()
	tph := runServePhase(tenv, o.seed, 1, o.dur/2)
	tafter := tenv.srv.Stats()
	defer tenv.close()
	rep.Attempted += tph.n
	rep.Failed += tph.fail.n
	rep.check("traced_requests_succeed", tph.fail.n == 0, "%d of %d failed %v", tph.fail.n, tph.n, tph.fail.first)
	serveTraceLayers(rep, tenv, tph)
	serviceLayers(rep, tbefore, tafter)
	storeLayers(rep, tbefore, tafter)
	rep.layer("guest_cycle_overhead_pct", env.cycleOverheadPct, len(serveRunImages))
	tall := tph.latencies(isAny)
	missing := 0
	for _, op := range tph.ops {
		if _, ok := tenv.srv.Tracer().Get(op.traceID); !ok {
			missing++
		}
	}
	traceOverhead(rep, tput, float64(len(tall))/tph.elapsed.Seconds(), p50, ms(tall.percentile(0.5)), missing, len(tph.ops)-missing)
	serveProbeLayers(rep, tenv)
	return rep, nil
}

// serveTraceLayers derives the service, HTTP, kernel and emulator layer
// metrics from the traced phase: service spans from each request's trace
// (fetched after the load stopped; a trace not retained counts as missing),
// guest counters from the /run responses.
func serveTraceLayers(rep *report, env *serveEnv, ph *servePhase) {
	var overhead time.Duration
	var traced, reqBytes, respBytes int
	var imageKB float64
	var hits, runs, tracedHits, tracedRuns int
	var ctr kernel.Counters
	var instret, cycles uint64
	var execSec float64
	var blocks struct{ built, hits, retired, traceRetired, traceHits, sideExits, picHits, picMisses uint64 }
	for i := range ph.ops {
		op := &ph.ops[i]
		reqBytes += op.reqLen
		respBytes += op.respLen
		if op.run {
			runs++
			r := op.result
			ctr.FaultRecoveries += r.Counters.FaultRecoveries
			ctr.Traps += r.Counters.Traps
			ctr.RuntimeRewrites += r.Counters.RuntimeRewrites
			instret += r.Instret
			cycles += r.Cycles
			if r.EmulatedMIPS > 0 {
				execSec += float64(r.Instret) / (r.EmulatedMIPS * 1e6)
			}
			b := r.Blocks
			blocks.built += b.Built
			blocks.hits += b.Hits
			blocks.retired += b.Retired
			blocks.traceRetired += b.TraceRetired
			blocks.traceHits += b.TraceHits
			blocks.sideExits += b.SideExits
			blocks.picHits += b.PICHits
			blocks.picMisses += b.PICMisses
		} else {
			hits++
			imageKB += op.imageKB
		}
		tr, ok := env.srv.Tracer().Get(op.traceID)
		if !ok {
			continue
		}
		exp := tr.Export()
		root := "service.rewrite"
		if op.run {
			root = "service.run"
		}
		rep.spans.addTrace(root, op.op, exp)
		overhead += op.lat - time.Duration(exp.DurationUS)*time.Microsecond
		traced++
		if op.run {
			tracedRuns++
		} else {
			tracedHits++
		}
	}
	n := len(ph.ops)
	rep.layer("http.overhead_ms", ratio(ms(overhead), float64(traced)), traced)
	rep.layer("http.req_kb", ratio(float64(reqBytes)/1024, float64(n)), n)
	rep.layer("http.resp_kb", ratio(float64(respBytes)/1024, float64(n)), n)
	rep.layer("obj.out_kb", ratio(imageKB, float64(hits)), hits)
	// Hits never reach the worker pool: queue wait and execution are per
	// /run, the store lookup per /rewrite.
	rep.layer("service.queue_wait_ms", rep.spans.perOp("queue_wait", tracedRuns, time.Millisecond), tracedRuns)
	rep.layer("service.run_exec_ms", rep.spans.perOp("run_exec", tracedRuns, time.Millisecond), tracedRuns)
	rep.layer("service.cache_lookup_ms", rep.spans.perOp("cache_lookup", tracedHits, time.Millisecond), tracedHits)
	rep.layer("service.rewrite_stage_ms", rep.spans.perOp("rewrite_attempt", tracedHits, time.Millisecond), tracedHits)
	perRun := func(v uint64) float64 { return ratio(float64(v), float64(runs)) }
	rep.layer("kernel.fault_recoveries", perRun(ctr.FaultRecoveries), runs)
	rep.layer("kernel.traps", perRun(ctr.Traps), runs)
	rep.layer("kernel.runtime_rewrites", perRun(ctr.RuntimeRewrites), runs)
	rep.layer("emu.ns_per_inst", ratio(execSec*1e9, float64(instret)), runs)
	rep.layer("emu.instret", perRun(instret), runs)
	rep.layer("emu.cycles", perRun(cycles), runs)
	rep.layer("emu.blocks_built", perRun(blocks.built), runs)
	rep.layer("emu.block_hit_ratio", ratio(float64(blocks.hits), float64(blocks.hits+blocks.built)), runs)
	rep.layer("emu.trace_retired_share", ratio(float64(blocks.traceRetired), float64(blocks.retired)), runs)
	rep.layer("emu.side_exit_rate", ratio(float64(blocks.sideExits), float64(blocks.traceHits)), runs)
	rep.layer("emu.pic_hit_ratio", ratio(float64(blocks.picHits), float64(blocks.picHits+blocks.picMisses)), runs)
}

// serveProbeLayers times the decode of every catalog request image, the
// encode back, and the process build and reset of every /run image, through
// the obj and kernel public calls.
func serveProbeLayers(rep *report, env *serveEnv) {
	rec := rep.spans
	var fail failures
	seen := make(map[*obj.Image]bool)
	for r := range env.hits {
		img := env.hits[r].input
		if seen[img] {
			continue
		}
		seen[img] = true
		var buf bytes.Buffer
		var err error
		rec.time("obj.encode", "probe", r, func() { _, err = img.WriteTo(&buf) })
		if err == nil {
			rec.time("obj.decode", "probe", r, func() { _, err = obj.ReadImage(bytes.NewReader(buf.Bytes())) })
		}
		if err != nil {
			fail.add("catalog rank %d: %v", r, err)
		}
	}
	for i, run := range env.runs {
		var p *kernel.Process
		var err error
		rec.time("kernel.build", "probe", i, func() {
			var v kernel.Variant
			if v, err = kernel.VariantFromImage(run.image.Clone()); err == nil {
				p, err = kernel.NewProcess(run.image.Name, []kernel.Variant{v})
			}
		})
		if err != nil {
			fail.add("run %d %s: %v", i, run.kind, err)
			continue
		}
		rec.time("kernel.reset", "probe", i, p.Reset)
	}
	rep.check("direct_calls_succeed", fail.n == 0, "%d failed %v", fail.n, fail.first)
	for _, l := range []struct {
		span, metric string
		unit         time.Duration
	}{
		{"obj.decode", "obj.decode_ms", time.Millisecond},
		{"obj.encode", "obj.encode_ms", time.Millisecond},
		{"kernel.build", "kernel.build_ms", time.Millisecond},
		{"kernel.reset", "kernel.reset_us", time.Microsecond},
	} {
		v, n := rec.mean(l.span, l.unit)
		rep.layer(l.metric, v, n)
	}
}
