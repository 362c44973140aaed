// Command chimerabench is the Chimera service benchmark. It drives the
// service through its public entry points — Server.Rewrite in process,
// Server.Handler over loopback HTTP, and fuzzsvc campaigns — under three
// workloads, checks every output, and prints end-to-end metrics (untraced)
// or per-layer metrics (traced). See README.md for the workloads, the
// metrics and what each layer metric should move.
//
// Usage, from the repository root:
//
//	bash chimerabench/run.sh --workload rewrite_cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// clients is the closed-loop concurrency of every workload: one client per
// core of the two-core machine the benchmark is sized for, so load
// generation never oversubscribes the CPUs the server needs.
const clients = 2

// setups is how many times each run builds its set-up; setup_s is their
// median.
const setups = 5

// opts is one invocation's parameters.
type opts struct {
	seed    int64
	dur     time.Duration
	traced  bool
	outDir  string // where spans and determinism records go
	rev     string // source revision, keying the determinism records
	onlyOne bool   // a single workload (the gated form), not "all"
}

// metric is one reported number with its unit and the count of samples or
// operations behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is what one workload run produced.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Checks    []check
	// Named are the workload's end-to-end metrics under their own names
	// (rewrite_per_s, hit_p99_ms, ...); Gate are the same measurements under
	// the workload-independent names BENCHMARK.json gates on.
	Named  []metric
	Gate   []metric
	Layers map[string]metric
	// Notes explain metrics left out of this run.
	Notes []string
	// Det are values that must repeat exactly for a given seed.
	Det   map[string]string
	spans *recorder
}

func newReport(name string) *report {
	return &report{Workload: name, Layers: make(map[string]metric), Det: make(map[string]string), spans: newRecorder()}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *report) named(name string, v float64, unit string, n int) {
	r.Named = append(r.Named, metric{Name: name, Value: v, Unit: unit, N: n})
}

// minTailSamples is the fewest samples a p99 is reported from, so that ten
// samples lie beyond it.
const minTailSamples = 1000

// p99 reports the 99th percentile of s under name, or a note when s is too
// small for it.
func (r *report) p99(name string, s samples) {
	if len(s) < minTailSamples {
		r.Notes = append(r.Notes, fmt.Sprintf("%s omitted: %d samples, fewer than %d", name, len(s), minTailSamples))
		return
	}
	r.named(name, ms(s.percentile(0.99)), "ms", len(s))
}

func (r *report) gate(name string, v float64, unit string, n int) {
	r.Gate = append(r.Gate, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *report) layer(name string, v float64, n int) {
	r.Layers[name] = metric{Name: name, Value: v, Unit: layerUnit(name), N: n}
}

// finishSetup records the set-up and memory metrics every workload shares.
func (r *report) finishSetup(setupS []float64) {
	rss := peakRSSMB()
	r.named("setup_s", median(setupS), "s", len(setupS))
	r.named("peak_rss_mb", rss, "MiB", 1)
	r.gate("setup_s", median(setupS), "s", len(setupS))
	r.gate("peak_rss_mb", rss, "MiB", 1)
}

// benchWorkload is one of the benchmark's workloads.
type benchWorkload struct {
	name string
	run  func(o opts) (*report, error)
}

// workloads are the benchmark's workloads, in the order "all" runs them.
var workloads = []benchWorkload{
	{"rewrite_cold", runRewriteCold},
	{"serve_mixed", runServeMixed},
	{"fuzz_campaign", runFuzzCampaign},
}

// gateMetrics are the end-to-end metrics BENCHMARK.json lists: the same
// names on every workload, each workload reporting its own operation. The
// p99s are printed but not gated: on the two-core development host they
// did not repeat within a tenth from run to run.
var gateMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("chimerabench", flag.ContinueOnError)
	name := fs.String("workload", "", "rewrite_cold, serve_mixed, fuzz_campaign, or all")
	seed := fs.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "chimerabench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var selected []benchWorkload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "chimerabench: unknown workload %q\n", *name)
		return 2
	}
	o := opts{
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		outDir:  ".bench_build/chimerabench",
		rev:     sourceRevision("."),
		onlyOne: len(selected) == 1,
	}
	// A wedged program must not hold the run forever: give up, without a
	// result line, long after any healthy run would have finished.
	limit := time.Duration(len(selected)) * (2*o.dur + 90*time.Second)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "chimerabench: no result after %v; giving up\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "chimerabench:", err)
		return 1
	}
	prov := provenance(o)
	final := map[string]valueUnit{}
	correct, attempted, failed := true, 0, 0
	for _, w := range selected {
		rep, err := w.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chimerabench: %s: %v\n", w.name, err)
			return 1
		}
		if err := rep.compareDeterminism(o); err != nil {
			fmt.Fprintf(os.Stderr, "chimerabench: %s: %v\n", w.name, err)
			return 1
		}
		if err := rep.spans.write(fmt.Sprintf("%s/spans-%s-seed%d-trace%d.jsonl", o.outDir, rep.Workload, o.seed, *trace)); err != nil {
			fmt.Fprintf(os.Stderr, "chimerabench: %s: writing spans: %v\n", w.name, err)
			return 1
		}
		printReport(rep, prov, o)
		for _, c := range rep.Checks {
			correct = correct && c.OK
		}
		attempted += rep.Attempted
		failed += rep.Failed
		for k, m := range finalMetrics(rep, o) {
			final[k] = m
		}
	}
	if attempted < 1 {
		attempted = 1
		correct = false
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct && failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   final,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimerabench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalMetrics selects the contract line's metrics: with one workload the
// gated names (end-to-end untraced, per-layer traced); with "all" every
// named metric, prefixed by its workload.
func finalMetrics(rep *report, o opts) map[string]valueUnit {
	out := make(map[string]valueUnit)
	switch {
	case o.traced:
		for _, lm := range layerMetrics {
			m := rep.Layers[lm.name]
			key := lm.name
			if !o.onlyOne {
				key = rep.Workload + "." + key
			}
			out[key] = valueUnit{m.Value, lm.unit}
		}
	case o.onlyOne:
		for _, m := range rep.Gate {
			out[m.Name] = valueUnit{m.Value, m.Unit}
		}
	default:
		for _, m := range rep.Named {
			out[rep.Workload+"."+m.Name] = valueUnit{m.Value, m.Unit}
		}
	}
	return out
}

// printReport writes the human-readable lines and one JSON result record
// carrying provenance, checks and every metric with its sample count.
func printReport(rep *report, prov map[string]any, o opts) {
	fmt.Printf("== %s seed=%d seconds=%.0f traced=%v\n", rep.Workload, o.seed, o.dur.Seconds(), o.traced)
	for _, c := range rep.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	var ms []metric
	if o.traced {
		for _, lm := range layerMetrics {
			m, ok := rep.Layers[lm.name]
			if !ok {
				m = metric{Name: lm.name, Unit: lm.unit}
			}
			ms = append(ms, m)
		}
	} else {
		ms = rep.Named
	}
	for _, m := range ms {
		fmt.Printf("metric %-28s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, n := range rep.Notes {
		fmt.Printf("note %s\n", n)
	}
	keys := make([]string, 0, len(rep.Det))
	for k := range rep.Det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("deterministic %-21s %s\n", k, rep.Det[k])
	}
	rec := map[string]any{
		"record":     "chimerabench",
		"provenance": prov,
		"workload":   rep.Workload,
		"attempted":  rep.Attempted,
		"failed":     rep.Failed,
		"checks":     rep.Checks,
		"metrics":    ms,
		"gate":       rep.Gate,
		"det":        rep.Det,
		"notes":      rep.Notes,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimerabench: record:", err)
		return
	}
	fmt.Println(string(b))
}

// compareDeterminism checks the run's deterministic values against the
// first run recorded for this workload, seed and source revision, and
// records them when none is. A difference is a failed check: the same code
// did not repeat itself. Other revisions keep records of their own, since a
// change may move these values on purpose.
func (r *report) compareDeterminism(o opts) error {
	path := fmt.Sprintf("%s/det-%s-seed%d-%s.json", o.outDir, r.Workload, o.seed, strings.TrimPrefix(o.rev, "src-sha256:"))
	prev := map[string]string{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return err
	}
	var diffs []string
	for k, v := range r.Det {
		if p, ok := prev[k]; ok && p != v {
			diffs = append(diffs, fmt.Sprintf("%s: %s, earlier %s", k, v, p))
		}
	}
	sort.Strings(diffs)
	r.check("deterministic_across_runs", len(diffs) == 0, "%s", strings.Join(diffs, "; "))
	merged := false
	for k, v := range r.Det {
		if _, ok := prev[k]; !ok {
			prev[k] = v
			merged = true
		}
	}
	if !merged {
		return nil
	}
	out, err := json.MarshalIndent(prev, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
