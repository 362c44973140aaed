package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// layerMetrics are the per-layer metrics a traced run prints, in order. A
// module a workload leaves idle reports 0 there. README.md lists which
// end-to-end metric each should move.
var layerMetrics = []struct{ name, unit string }{
	{"service.queue_wait_ms", "ms"},
	{"service.rewrite_stage_ms", "ms"},
	{"service.run_exec_ms", "ms"},
	{"service.cache_lookup_ms", "ms"},
	{"service.degraded", "count"},
	{"service.retries", "count"},
	{"service.rejects", "count"},
	{"http.overhead_ms", "ms"},
	{"http.req_kb", "KiB"},
	{"http.resp_kb", "KiB"},
	{"store.hit_ratio", "ratio"},
	{"store.puts", "count"},
	{"store.evictions", "count"},
	{"store.mb", "MiB"},
	{"store.verify_ms", "ms"},
	{"obj.decode_ms", "ms"},
	{"obj.encode_ms", "ms"},
	{"obj.out_kb", "KiB"},
	{"resolve.ms", "ms"},
	{"resolve.sites_high", "count"},
	{"resolve.sites_unresolved", "count"},
	{"dis.ms", "ms"},
	{"dis.insts", "count"},
	{"translate.match_ms", "ms"},
	{"translate.sites", "count"},
	{"chbp.ms", "ms"},
	{"chbp.self_ms", "ms"},
	{"chbp.sites", "count"},
	{"chbp.target_kb", "KiB"},
	{"safer.ms", "ms"},
	{"armore.ms", "ms"},
	{"rewriters.new_code_kb", "KiB"},
	{"kernel.build_ms", "ms"},
	{"kernel.reset_us", "us"},
	{"kernel.fault_recoveries", "count"},
	{"kernel.traps", "count"},
	{"kernel.runtime_rewrites", "count"},
	{"emu.ns_per_inst", "ns"},
	{"emu.instret", "count"},
	{"emu.cycles", "count"},
	{"emu.blocks_built", "count"},
	{"emu.block_hit_ratio", "ratio"},
	{"emu.trace_retired_share", "ratio"},
	{"emu.side_exit_rate", "ratio"},
	{"emu.pic_hit_ratio", "ratio"},
	{"fuzz.exec_us", "us"},
	{"fuzz.reset_us", "us"},
	{"fuzz.cov_reset_us", "us"},
	{"fuzz.guest_us", "us"},
	{"fuzz.other_us", "us"},
	{"fuzz.novel_ratio", "ratio"},
	{"fuzz.edges", "count"},
	{"fuzz.crash_buckets", "count"},
	{"fuzz.hangs", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cpu_fraction", "ratio"},
	{"output_bytes_ratio", "ratio"},
	{"guest_cycle_overhead_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.missing", "count"},
}

func layerUnit(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	panic("chimerabench: unlisted layer metric " + name)
}

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point or copied from a service trace.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	DurNS   int64  `json:"dur_ns"`
}

// recorder holds spans in memory until the run ends. It is used from one
// goroutine at a time.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// time runs f as one span and returns its duration.
func (r *recorder) time(name, parent string, op int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, StartNS: start.Sub(r.t0).Nanoseconds(), DurNS: d.Nanoseconds()})
	return d
}

// addTrace copies a finished service trace's spans, parented to root.
func (r *recorder) addTrace(root string, op int, tr telemetry.TraceJSON) {
	base := tr.Start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{Name: root, Op: op, StartNS: base, DurNS: tr.DurationUS * 1000})
	for _, sp := range tr.Spans {
		r.spans = append(r.spans, span{Name: sp.Name, Parent: root, Op: op, StartNS: base + sp.StartUS*1000, DurNS: sp.DurationUS * 1000})
	}
}

// total returns the summed duration and count of the spans named name.
func (r *recorder) total(name string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += time.Duration(s.DurNS)
			n++
		}
	}
	return sum, n
}

// perOp returns the named spans' summed duration divided by ops, in unit
// (time.Millisecond or time.Microsecond).
func (r *recorder) perOp(name string, ops int, unit time.Duration) float64 {
	sum, _ := r.total(name)
	return ratio(float64(sum)/float64(unit), float64(ops))
}

// mean returns the named spans' mean duration in unit.
func (r *recorder) mean(name string, unit time.Duration) (float64, int) {
	sum, n := r.total(name)
	return ratio(float64(sum)/float64(unit), float64(n)), n
}

// write stores the spans as JSON lines; an untraced run has none and
// writes nothing.
func (r *recorder) write(path string) error {
	if len(r.spans) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
