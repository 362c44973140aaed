package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/service"
	"github.com/eurosys26p57/chimera/internal/telemetry"
	"github.com/eurosys26p57/chimera/internal/translate"
)

const (
	// coldCacheBytes is the store budget. Every cold result is written to
	// the store, so the stream evicts and memory stays bounded.
	coldCacheBytes = 64 << 20
	// coldWarmup is how many rewrites of a separate image stream each set-up
	// runs before timing starts.
	coldWarmup = 16
	// coldDetPrefix is how many leading requests output_bytes_ratio and the
	// output digest cover, so both are exact functions of the seed.
	coldDetPrefix = 256
	// coldProbe is how many images a traced run times layer by layer.
	coldProbe = 32
	// coldBlock is how many images are built, untimed, before the clients
	// send them, so the generator never takes the server's cores inside the
	// timed window. Large blocks keep the idle tail at each block's end
	// (the slowest request) near 1% of the timed time.
	coldBlock = 256
)

func newColdServer() *service.Server {
	return service.New(service.Config{CacheBytes: coldCacheBytes, TraceCapacity: -1})
}

type tracedOp struct {
	op int
	tr *telemetry.Trace
}

// coldPhase is one stretch of the rewrite_cold closed loop.
type coldPhase struct {
	firstOp int
	// elapsed is the summed wall time of the timed blocks; build is the
	// time spent building their images between them.
	elapsed time.Duration
	build   time.Duration
	n       int
	lat     samples
	fail    failures
	traces  []tracedOp
	// Per-request byte counts and output digests for the phase's first
	// coldDetPrefix requests, indexed from the phase's first sequence number.
	inBytes  []int64
	outBytes []int64
	outSum   [][sha256.Size]byte
	done     []bool
}

// runColdPhase drives rewrite requests first, first+1, ... for about d of
// wall time, in blocks of coldBlock: the block's images are built first,
// then the clients send them and only that part is timed. With a tracer,
// each call carries a trace the phase keeps for span collection.
func runColdPhase(srv *service.Server, seed int64, first int, d time.Duration, tracer *telemetry.Tracer) *coldPhase {
	ph := &coldPhase{
		firstOp:  first,
		inBytes:  make([]int64, coldDetPrefix),
		outBytes: make([]int64, coldDetPrefix),
		outSum:   make([][sha256.Size]byte, coldDetPrefix),
		done:     make([]bool, coldDetPrefix),
	}
	type clientState struct {
		lat    samples
		fail   failures
		traces []tracedOp
	}
	per := make([]clientState, clients)
	reqs := make([]coldRequest, coldBlock)
	imgs := make([]*obj.Image, coldBlock)
	errs := make([]error, coldBlock)
	base := first // the current block's first request
	send := func(c, i int) {
		cs := &per[c]
		req, img, err := reqs[i-base], imgs[i-base], errs[i-base]
		if err != nil {
			cs.fail.add("request %d: building image: %v", i, err)
			return
		}
		ctx := context.Background()
		var tr *telemetry.Trace
		if tracer != nil {
			tr = tracer.Start("rewrite")
			ctx = telemetry.ContextWithTrace(ctx, tr)
		}
		start := time.Now()
		res, err := srv.Rewrite(ctx, &service.RewriteRequest{Method: req.Method, Target: req.Target, Resolve: req.Resolve, Image: img})
		lat := time.Since(start)
		tr.Finish()
		switch {
		case err != nil:
			cs.fail.add("request %d (%s): %v", i, req.Kind, err)
			return
		case res.Degraded:
			cs.fail.add("request %d (%s): degraded: %s", i, req.Kind, res.DegradedReason)
			return
		case res.CacheHit:
			cs.fail.add("request %d (%s): store hit on a distinct image", i, req.Kind)
			return
		case len(res.ImageBytes) == 0:
			cs.fail.add("request %d (%s): empty image", i, req.Kind)
			return
		}
		cs.lat = append(cs.lat, lat)
		if tr != nil {
			cs.traces = append(cs.traces, tracedOp{op: i, tr: tr})
		}
		if k := i - first; k < coldDetPrefix {
			// Each index is written by exactly one client.
			n, _ := img.WriteTo(io.Discard) // WriteTo to io.Discard cannot fail
			ph.inBytes[k] = n
			ph.outBytes[k] = int64(len(res.ImageBytes))
			ph.outSum[k] = sha256.Sum256(res.ImageBytes)
			ph.done[k] = true
		}
	}
	wallStart := time.Now()
	for ; time.Since(wallStart) < d; base += coldBlock {
		buildStart := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < coldBlock; k += clients {
					reqs[k] = newColdRequest(seed, 0, base+k)
					imgs[k], errs[k] = reqs[k].image()
				}
			}(c)
		}
		wg.Wait()
		ph.build += time.Since(buildStart)
		ph.elapsed += closedBatch(clients, base, coldBlock, send)
		ph.n += coldBlock
	}
	for _, cs := range per {
		ph.lat = append(ph.lat, cs.lat...)
		ph.fail.merge(cs.fail)
		ph.traces = append(ph.traces, cs.traces...)
	}
	return ph
}

// det returns Σ output bytes / Σ input bytes and a digest over the output
// digests of the phase's first coldDetPrefix requests, and whether all of
// them completed.
func (ph *coldPhase) det() (float64, string, bool) {
	var in, out int64
	h := sha256.New()
	for k := range ph.done {
		if !ph.done[k] {
			return 0, "", false
		}
		in += ph.inBytes[k]
		out += ph.outBytes[k]
		h.Write(ph.outSum[k][:])
	}
	return float64(out) / float64(in), hex.EncodeToString(h.Sum(nil))[:16], true
}

func runRewriteCold(o opts) (*report, error) {
	rep := newReport("rewrite_cold")
	var srv *service.Server
	var setupS []float64
	for s := 0; s < setups; s++ {
		if srv != nil {
			shutdown(srv)
		}
		start := time.Now()
		srv = newColdServer()
		var warm failures
		for i := 0; i < coldWarmup; i++ {
			req := newColdRequest(o.seed, streamColdWarm, i)
			img, err := req.image()
			if err != nil {
				warm.add("warm-up %d: %v", i, err)
				continue
			}
			res, err := srv.Rewrite(context.Background(), &service.RewriteRequest{Method: req.Method, Target: req.Target, Resolve: req.Resolve, Image: img})
			if err != nil || res.Degraded {
				warm.add("warm-up %d (%s): err=%v degraded=%v", i, req.Kind, err, res != nil && res.Degraded)
			}
		}
		setupS = append(setupS, time.Since(start).Seconds())
		rep.Attempted += coldWarmup
		rep.Failed += warm.n
		if warm.n > 0 {
			rep.check("warmup_rewrites_succeed", false, "%d failed: %v", warm.n, warm.first)
		}
	}
	defer shutdown(srv)
	runtime.GC()

	measure := o.dur
	if o.traced {
		measure = o.dur / 2
	}
	before := srv.Stats()
	g0 := readGo()
	ph := runColdPhase(srv, o.seed, 0, measure, nil)
	g1 := readGo()
	after := srv.Stats()
	rep.Attempted += ph.n
	rep.Failed += ph.fail.n
	rep.check("rewrites_succeed", ph.fail.n == 0, "%d of %d failed %v", ph.fail.n, ph.n, ph.fail.first)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	rep.check("store_hit_ratio_is_0", hits == 0 && misses > 0, "hits=%d misses=%d", hits, misses)
	outRatio, digest, complete := ph.det()
	if complete {
		rep.Det["output_bytes_ratio"] = strconv.FormatFloat(outRatio, 'g', -1, 64)
		rep.Det["outputs_sha256"] = digest
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("output_bytes_ratio omitted: fewer than %d requests completed", coldDetPrefix))
	}
	tput := float64(len(ph.lat)) / ph.elapsed.Seconds()
	rep.Notes = append(rep.Notes, fmt.Sprintf("image building took %.2f s between the timed blocks (%.1f%% of the phase), outside rewrite_per_s",
		ph.build.Seconds(), 100*ratio(ph.build.Seconds(), (ph.build+ph.elapsed).Seconds())))
	p50 := ms(ph.lat.percentile(0.50))

	if !o.traced {
		rep.named("rewrite_per_s", tput, "1/s", len(ph.lat))
		rep.named("rewrite_p50_ms", p50, "ms", len(ph.lat))
		rep.p99("rewrite_p99_ms", ph.lat)
		if complete {
			rep.named("output_bytes_ratio", outRatio, "ratio", coldDetPrefix)
		}
		rep.gate("ops_per_s", tput, "1/s", len(ph.lat))
		rep.gate("latency_p50_ms", p50, "ms", len(ph.lat))
		rep.finishSetup(setupS)
		return rep, nil
	}

	goLayers(rep, g0, g1, ph.n)
	tph := runColdPhase(srv, o.seed, ph.n, o.dur/2, telemetry.NewTracer(1))
	final := srv.Stats()
	rep.Attempted += tph.n
	rep.Failed += tph.fail.n
	rep.check("traced_rewrites_succeed", tph.fail.n == 0, "%d of %d failed %v", tph.fail.n, tph.n, tph.fail.first)
	for _, t := range tph.traces {
		rep.spans.addTrace("service.rewrite", t.op, t.tr.Export())
	}
	ops := len(tph.traces)
	rep.layer("service.queue_wait_ms", rep.spans.perOp("queue_wait", ops, time.Millisecond), ops)
	rep.layer("service.rewrite_stage_ms", rep.spans.perOp("rewrite_attempt", ops, time.Millisecond), ops)
	rep.layer("service.cache_lookup_ms", rep.spans.perOp("cache_lookup", ops, time.Millisecond), ops)
	serviceLayers(rep, after, final)
	storeLayers(rep, after, final)
	if complete {
		rep.layer("output_bytes_ratio", outRatio, coldDetPrefix)
	}
	traceOverhead(rep, tput, float64(len(tph.lat))/tph.elapsed.Seconds(), p50, ms(tph.lat.percentile(0.5)), 0, ops)
	if err := coldProbeLayers(rep, o.seed, tph); err != nil {
		return nil, err
	}
	return rep, nil
}

// serviceLayers records the service's fault counters accumulated between
// two Stats snapshots.
func serviceLayers(r *report, a, b service.Stats) {
	r.layer("service.degraded", float64(b.Faults.Degradations-a.Faults.Degradations), 1)
	r.layer("service.retries", float64(b.Faults.Retries-a.Faults.Retries), 1)
	r.layer("service.rejects", float64(b.Faults.Rejects-a.Faults.Rejects), 1)
}

// storeLayers records the memory store's activity between two Stats
// snapshots. Stage histograms are read for their sums and counts only.
func storeLayers(r *report, a, b service.Stats) {
	hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
	r.layer("store.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	evictions := b.Cache.Evictions - a.Cache.Evictions
	puts := int64(b.Cache.Entries-a.Cache.Entries) + int64(evictions)
	r.layer("store.puts", float64(puts), 1)
	r.layer("store.evictions", float64(evictions), 1)
	r.layer("store.mb", float64(b.Cache.Bytes)/(1<<20), 1)
	va, vb := a.Stages["verify"], b.Stages["verify"]
	n := vb.Count - va.Count
	r.layer("store.verify_ms", ratio(vb.TotalMS-va.TotalMS, float64(n)), int(n))
}

// traceOverhead records traced minus untraced.
func traceOverhead(r *report, tputUntraced, tputTraced, p50Untraced, p50Traced float64, missing, ops int) {
	r.layer("trace.overhead_pct", (ratio(tputUntraced, tputTraced)-1)*100, ops)
	r.layer("trace.overhead_p50_ms", p50Traced-p50Untraced, ops)
	r.layer("trace.missing", float64(missing), ops+missing)
}

// coldProbeLayers times the rewrite pipeline's public calls one by one on
// the traced phase's first coldProbe images, and checks each direct result
// is byte-identical to what the service returned for the same request. Only
// a failure to build its own input is an error.
func coldProbeLayers(rep *report, seed int64, tph *coldPhase) error {
	rec := rep.spans
	var (
		n, chbpN, baseN                           int
		sitesHigh, unresolved, insts, matchSites  int
		chbpSites, targetBytes, newCode, outBytes int
		chbpSelf                                  time.Duration
		mismatches                                failures
	)
	for k := 0; k < coldProbe && k < len(tph.done); k++ {
		if !tph.done[k] {
			continue
		}
		i := tph.firstOp + k
		req := newColdRequest(seed, 0, i)
		img, err := req.image()
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		isa, err := riscv.ParseISA(req.Target)
		if err != nil {
			return err
		}
		var ts *resolve.TargetSet
		dRes := rec.time("resolve", "probe", i, func() { ts = resolve.Resolve(img) })
		sum := ts.Summary()
		sitesHigh += sum.SitesHigh
		unresolved += sum.SitesUnresolved
		var d *dis.Result
		dDis := rec.time("dis", "probe", i, func() { d = dis.Disassemble(img) })
		insts += len(d.Order)
		dMatch := rec.time("translate.match", "probe", i, func() {
			matchSites += len(translate.MatchUpgrades(d)) + len(translate.MatchVectorDowngrades(d))
		})
		if !req.Resolve {
			ts = nil
		}
		var out *obj.Image
		switch req.Method {
		case "chbp":
			var res *chbp.Result
			dChbp := rec.time("chbp", "probe", i, func() { res, err = chbp.Rewrite(img, chbp.Options{TargetISA: isa, Resolve: req.Resolve}) })
			if err != nil {
				mismatches.add("request %d (%s): chbp: %v", i, req.Kind, err)
				continue
			}
			self := dChbp - dDis - dMatch
			if req.Resolve {
				self -= dRes
			}
			chbpSelf += self
			chbpN++
			chbpSites += res.Stats.Sites
			targetBytes += res.Stats.TargetBytes
			out = res.Image
		case "safer", "armore":
			var res *rewriters.Rewritten
			rec.time(req.Method, "probe", i, func() {
				if req.Method == "safer" {
					res, err = rewriters.SaferWith(img, isa, false, ts)
				} else {
					res, err = rewriters.ARMoreWith(img, isa, false, ts)
				}
			})
			if err != nil {
				mismatches.add("request %d (%s): %v", i, req.Kind, err)
				continue
			}
			baseN++
			newCode += res.Stats.NewCodeBytes
			out = res.Image
		}
		var buf bytes.Buffer
		rec.time("obj.encode", "probe", i, func() { _, err = out.WriteTo(&buf) })
		if err == nil {
			rec.time("obj.decode", "probe", i, func() { _, err = obj.ReadImage(bytes.NewReader(buf.Bytes())) })
		}
		switch {
		case err != nil:
			mismatches.add("request %d (%s): %v", i, req.Kind, err)
			continue
		case sha256.Sum256(buf.Bytes()) != tph.outSum[k]:
			mismatches.add("request %d (%s): differs from the service's result", i, req.Kind)
		}
		outBytes += buf.Len()
		n++
	}
	rep.check("direct_calls_match_service", mismatches.n == 0 && n > 0, "%d of %d differ %v", mismatches.n, n, mismatches.first)
	per := func(v int, by int) float64 { return ratio(float64(v), float64(by)) }
	for _, l := range []struct{ span, metric string }{
		{"resolve", "resolve.ms"},
		{"dis", "dis.ms"},
		{"translate.match", "translate.match_ms"},
		{"chbp", "chbp.ms"},
		{"safer", "safer.ms"},
		{"armore", "armore.ms"},
		{"obj.encode", "obj.encode_ms"},
		{"obj.decode", "obj.decode_ms"},
	} {
		v, c := rec.mean(l.span, time.Millisecond)
		rep.layer(l.metric, v, c)
	}
	rep.layer("resolve.sites_high", per(sitesHigh, n), n)
	rep.layer("resolve.sites_unresolved", per(unresolved, n), n)
	rep.layer("dis.insts", per(insts, n), n)
	rep.layer("translate.sites", per(matchSites, n), n)
	rep.layer("chbp.self_ms", ratio(ms(chbpSelf), float64(chbpN)), chbpN)
	rep.layer("chbp.sites", per(chbpSites, chbpN), chbpN)
	rep.layer("chbp.target_kb", per(targetBytes, chbpN)/1024, chbpN)
	rep.layer("rewriters.new_code_kb", per(newCode, baseN)/1024, baseN)
	rep.layer("obj.out_kb", per(outBytes, n)/1024, n)
	return nil
}
