package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/eurosys26p57/chimera/internal/fuzzsvc"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// fuzzProbeExecs is how many Reset-and-run cycles a traced run times one by
// one.
const fuzzProbeExecs = 2000

// fuzzTargets builds the two campaign targets: compressed rv64gc and
// uncompressed rv64gcv builds of the planted-crash guest.
func fuzzTargets() ([2]*obj.Image, error) {
	var out [2]*obj.Image
	for i, t := range []struct {
		isa      riscv.Ext
		compress bool
	}{{riscv.RV64GC, true}, {riscv.RV64GCV, false}} {
		img, err := workload.FuzzTarget(t.isa, t.compress)
		if err != nil {
			return out, fmt.Errorf("fuzz target: %w", err)
		}
		out[i] = img
	}
	return out, nil
}

// campaignResult is one finished campaign as the benchmark saw it.
type campaignResult struct {
	lat  time.Duration
	snap fuzzsvc.Snapshot
}

// runCampaign builds and runs campaign j with the given execution budget and
// checks that it triaged the planted crash to its exact 8-byte reproducer.
func runCampaign(targets [2]*obj.Image, seed int64, j int, maxExecs uint64) (campaignResult, error) {
	start := time.Now()
	c, err := fuzzsvc.New(fuzzsvc.Config{
		Image:      targets[j%2],
		MaxExecs:   maxExecs,
		MaxInput:   fuzzMaxInput,
		ExecBudget: fuzzExecBudget,
		Seed:       fuzzCampaignSeed(seed, j),
	})
	if err != nil {
		return campaignResult{}, err
	}
	if err := c.Run(context.Background()); err != nil {
		return campaignResult{}, err
	}
	res := campaignResult{lat: time.Since(start), snap: c.Snapshot()}
	want := workload.FuzzTargetCrashInput()
	for _, cr := range res.snap.Crashes {
		if cr.Signal == 11 && bytes.Equal(cr.Minimized, want) {
			return res, nil
		}
	}
	return res, fmt.Errorf("planted crash not triaged (%d buckets)", len(res.snap.Crashes))
}

// fuzzPhase is one timed stretch of back-to-back campaigns.
type fuzzPhase struct {
	elapsed time.Duration
	n       int
	lat     samples
	execs   uint64
	results []campaignResult
	fail    failures
}

// runFuzzPhase runs campaigns first, first+1, ... one at a time for d.
// With a recorder, each campaign's construction and run is one span.
func runFuzzPhase(targets [2]*obj.Image, seed int64, first int, d time.Duration, rec *recorder) *fuzzPhase {
	ph := &fuzzPhase{}
	ph.elapsed, ph.n = closedLoop(1, first, d, func(_, j int) {
		var res campaignResult
		var err error
		run := func() { res, err = runCampaign(targets, seed, j, fuzzMaxExecs) }
		if rec != nil {
			rec.time("fuzzsvc.campaign", "", j, run)
		} else {
			run()
		}
		if err != nil {
			ph.fail.add("campaign %d: %v", j, err)
			return
		}
		ph.lat = append(ph.lat, res.lat)
		ph.execs += res.snap.Execs
		ph.results = append(ph.results, res)
	})
	return ph
}

func runFuzzCampaign(o opts) (*report, error) {
	rep := newReport("fuzz_campaign")
	var targets [2]*obj.Image
	var setupS []float64
	for s := 0; s < setups; s++ {
		start := time.Now()
		var err error
		if targets, err = fuzzTargets(); err != nil {
			return nil, err
		}
		// A short warm-up campaign from a stream the measured sequence never
		// uses.
		_, err = runCampaign(targets, mix(o.seed, streamFuzzWarm), s, fuzzWarmExecs)
		setupS = append(setupS, time.Since(start).Seconds())
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.check("warmup_campaign_triages_planted_crash", false, "set-up %d: %v", s, err)
		}
	}
	runtime.GC()

	measure := o.dur
	if o.traced {
		measure = o.dur / 2
	}
	g0 := readGo()
	ph := runFuzzPhase(targets, o.seed, 0, measure, nil)
	g1 := readGo()
	rep.Attempted += ph.n
	rep.Failed += ph.fail.n
	rep.check("campaigns_triage_planted_crash", ph.fail.n == 0, "%d of %d failed %v", ph.fail.n, ph.n, ph.fail.first)
	again, err := runCampaign(targets, o.seed, 0, fuzzMaxExecs)
	first := ""
	if len(ph.results) > 0 {
		first = ph.results[0].snap.TraceDigest
	}
	rep.check("campaign_replays_same_digest", err == nil && first != "" && again.snap.TraceDigest == first,
		"first %s, replay %s, err %v", first, again.snap.TraceDigest, err)
	for k := 0; k < 4 && k < len(ph.results); k++ {
		rep.Det[fmt.Sprintf("campaign%d_trace_digest", k)] = ph.results[k].snap.TraceDigest
	}
	execsPerS := float64(ph.execs) / ph.elapsed.Seconds()
	p50 := ms(ph.lat.percentile(0.50))

	if !o.traced {
		rep.named("fuzz_execs_per_s", execsPerS, "1/s", int(ph.execs))
		rep.named("campaign_p50_ms", p50, "ms", len(ph.lat))
		rep.gate("ops_per_s", execsPerS, "1/s", int(ph.execs))
		rep.gate("latency_p50_ms", p50, "ms", len(ph.lat))
		rep.finishSetup(setupS)
		return rep, nil
	}

	goLayers(rep, g0, g1, int(ph.execs))
	tph := runFuzzPhase(targets, o.seed, ph.n, o.dur/2, rep.spans)
	rep.Attempted += tph.n
	rep.Failed += tph.fail.n
	rep.check("traced_campaigns_triage_planted_crash", tph.fail.n == 0, "%d of %d failed %v", tph.fail.n, tph.n, tph.fail.first)
	var corpus, edges, crashes int
	var hangs uint64
	for _, r := range tph.results {
		corpus += r.snap.Corpus
		edges += r.snap.Edges
		crashes += len(r.snap.Crashes)
		hangs += r.snap.Hangs
	}
	n := len(tph.results)
	rep.layer("fuzz.exec_us", ratio(float64(tph.elapsed.Microseconds()), float64(tph.execs)), int(tph.execs))
	rep.layer("fuzz.novel_ratio", ratio(float64(corpus), float64(tph.execs)), int(tph.execs))
	rep.layer("fuzz.edges", ratio(float64(edges), float64(n)), n)
	rep.layer("fuzz.crash_buckets", ratio(float64(crashes), float64(n)), n)
	rep.layer("fuzz.hangs", float64(hangs), n)
	traceOverhead(rep, execsPerS, float64(tph.execs)/tph.elapsed.Seconds(), p50, ms(tph.lat.percentile(0.5)), 0, n)
	fuzzProbeLayers(rep, targets, o.seed)
	return rep, nil
}

// fuzzProbeLayers splits one exec into its parts by replaying the campaign
// engine's per-exec sequence through the public kernel and instrument
// calls: SetInput, Process.Reset (which also clears the observers), the
// guest run, and — timed on its own — a coverage-map clear.
func fuzzProbeLayers(rep *report, targets [2]*obj.Image, seed int64) {
	rec := rep.spans
	img := targets[0]
	var p *kernel.Process
	var err error
	rec.time("kernel.build", "probe", 0, func() {
		var v kernel.Variant
		if v, err = kernel.VariantFromImage(img); err == nil {
			p, err = kernel.NewProcess("probe:"+img.Name, []kernel.Variant{v})
		}
	})
	if err != nil {
		rep.check("direct_calls_succeed", false, "building the probe process: %v", err)
		return
	}
	h := p.Hooks()
	h.Cov = instrument.NewCoverage()
	h.Cmp = instrument.NewCmpLog()
	p.CPU.RefreshHooks()
	rng := rand.New(rand.NewSource(mix(seed, streamFuzzInput)))
	input := make([]byte, fuzzMaxInput)
	startInstret := p.CPU.Instret
	var guest time.Duration
	var cycles uint64
	for i := 0; i < fuzzProbeExecs; i++ {
		in := input[:8+rng.Intn(fuzzMaxInput-8)]
		rng.Read(in)
		if i%4 == 0 {
			copy(in, workload.FuzzTargetPrefix) // reach the deeper gates too
		}
		p.SetInput(in)
		rec.time("kernel.reset", "fuzz.exec", i, p.Reset)
		p.CPU.MaxInstret = p.CPU.Instret + fuzzExecBudget
		guest += rec.time("fuzz.guest", "fuzz.exec", i, func() {
			for k := 0; k < 10_000 && !p.Exited && err == nil; k++ {
				var n uint64
				var st kernel.Status
				n, st, err = p.Run(fuzzExecBudget)
				cycles += n
				if st == kernel.StatusBudget {
					break
				}
			}
		})
		if err != nil {
			rep.check("direct_calls_succeed", false, "probe exec %d: %v", i, err)
			return
		}
		rec.time("instrument.cov_reset", "fuzz.exec", i, h.Cov.Reset)
	}
	build, _ := rec.mean("kernel.build", time.Millisecond)
	reset, nReset := rec.mean("kernel.reset", time.Microsecond)
	guestUS, nGuest := rec.mean("fuzz.guest", time.Microsecond)
	cov, nCov := rec.mean("instrument.cov_reset", time.Microsecond)
	rep.layer("kernel.build_ms", build, 1)
	rep.layer("kernel.reset_us", reset, nReset)
	rep.layer("fuzz.reset_us", reset, nReset)
	rep.layer("fuzz.guest_us", guestUS, nGuest)
	rep.layer("fuzz.cov_reset_us", cov, nCov)
	rep.layer("fuzz.other_us", rep.Layers["fuzz.exec_us"].Value-reset-guestUS, nGuest)
	instret := p.CPU.Instret - startInstret
	rep.layer("emu.ns_per_inst", ratio(float64(guest.Nanoseconds()), float64(instret)), nGuest)
	rep.layer("emu.instret", ratio(float64(instret), float64(nGuest)), nGuest)
	rep.layer("emu.cycles", ratio(float64(cycles), float64(nGuest)), nGuest)
	b := p.CPU.Blocks
	rep.layer("emu.blocks_built", float64(b.Built), 1)
	rep.layer("emu.block_hit_ratio", b.HitRatio(), 1)
	rep.layer("emu.trace_retired_share", ratio(float64(b.TraceRetired), float64(b.Retired)), 1)
	rep.layer("emu.side_exit_rate", b.SideExitRate(), 1)
	rep.layer("emu.pic_hit_ratio", b.PICHitRatio(), 1)
	rep.check("direct_calls_succeed", true, "")
}
