// Emulated-MIPS benchmarks for the CPU hot loop: each workload runs under
// the trace tier (the default), the basic-block tier alone, and the
// per-instruction reference loop (Interp), so each tier's speedup is
// directly visible as the ratio of the ns/inst numbers. scripts/bench.sh
// harvests these into BENCH_emu.json, and scripts/check.sh gates on every
// CPURun* benchmark reporting 0 allocs/op.
//
// All benchmarks measure the steady state of a long-lived server: the CPU
// (or kernel process) is built once, warmed until its translation caches
// stop changing, and then re-run via Reset. The timed region therefore
// contains no setup — page mapping and block/trace compilation amortize to
// zero, which is also what makes the hot loops allocation-free.
package emu_test

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// tierModes is the three-way submode matrix shared by the benchmarks:
// traces (both tiers, the production default), blocks (trace tier off),
// interp (the per-instruction reference loop).
var tierModes = []struct {
	name      string
	interp    bool
	threshold uint32
}{
	{"traces", false, emu.DefaultTraceThreshold},
	{"blocks", false, 0},
	{"interp", true, 0},
}

// runToCompletion drives a bare CPU until the program's exit ecall.
func runToCompletion(b *testing.B, cpu *emu.CPU) {
	b.Helper()
	for {
		stop := cpu.Run(50_000_000)
		switch stop.Kind {
		case emu.StopLimit:
			continue
		case emu.StopEcall, emu.StopBreak:
			return
		default:
			b.Fatalf("unexpected stop: %+v", stop)
		}
	}
}

// warmStable re-runs work until two consecutive runs build no new blocks or
// traces (bounded): past that point the deterministic workload re-executes
// entirely from warm caches, so the timed region measures steady state. A
// block dispatched once per run crosses the promotion threshold only at run
// ~threshold, so with traces enabled the stability check is deferred past
// that point — otherwise the early lull between the hot-loop builds (run 1)
// and the cold-block builds (run ~64) looks stable and late builds leak
// allocations into the timed region.
func warmStable(threshold uint32, stats func() emu.BlockStats, run func()) {
	minRuns := 1
	if threshold > 0 {
		minRuns = int(threshold) + 4
	}
	var prev emu.BlockStats
	for i := 0; i < minRuns+100; i++ {
		run()
		s := stats()
		if i >= minRuns && s.Built == prev.Built && s.TracesBuilt == prev.TracesBuilt {
			return
		}
		prev = s
	}
}

// benchImage measures ns per retired instruction and emulated MIPS for one
// image on a bare hart.
func benchImage(b *testing.B, img *obj.Image, isa riscv.Ext, interp bool, threshold uint32) {
	b.Helper()
	mem := emu.NewMemory()
	mem.MapImage(img)
	cpu := emu.NewCPU(mem, isa)
	cpu.Interp = interp
	cpu.TraceThreshold = threshold
	warmStable(cpu.TraceThreshold, func() emu.BlockStats { return cpu.Blocks }, func() {
		cpu.Reset(img)
		runToCompletion(b, cpu)
	})
	b.ReportAllocs()
	b.ResetTimer()
	start := cpu.Instret
	for i := 0; i < b.N; i++ {
		cpu.Reset(img)
		runToCompletion(b, cpu)
	}
	insts := cpu.Instret - start
	sec := b.Elapsed().Seconds()
	if insts > 0 && sec > 0 {
		b.ReportMetric(float64(insts)/sec/1e6, "Minst/s")
		b.ReportMetric(sec*1e9/float64(insts), "ns/inst")
	}
}

func benchTiers(b *testing.B, build func() (*obj.Image, error), isa riscv.Ext) {
	b.Helper()
	img, err := build()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range tierModes {
		b.Run(mode.name, func(b *testing.B) { benchImage(b, img, isa, mode.interp, mode.threshold) })
	}
}

// BenchmarkCPURunFib measures the branchy integer hot loop.
func BenchmarkCPURunFib(b *testing.B) {
	benchTiers(b, func() (*obj.Image, error) {
		return workload.Fibonacci(1000, riscv.RV64GC, true)
	}, riscv.RV64GC)
}

// BenchmarkCPURunMatmulScalar measures the scalar FP kernel — the PR 2
// headline ≥3x acceptance number compares blocks vs interp here.
func BenchmarkCPURunMatmulScalar(b *testing.B) {
	benchTiers(b, func() (*obj.Image, error) {
		return workload.Matmul(24, false, true)
	}, riscv.RV64GC)
}

// BenchmarkCPURunMatmulRVV measures the vector kernel (the block engine
// falls back to the interpreter's exec for vector ops, so the win here is
// bounded by the scalar loop scaffolding around them).
func BenchmarkCPURunMatmulRVV(b *testing.B) {
	benchTiers(b, func() (*obj.Image, error) {
		return workload.Matmul(24, true, true)
	}, riscv.RV64GCV)
}

// BenchmarkCPURunProfiler measures the guest profiler's cost on the block
// engine's hot loop: "off" is the production default (no hooks), "on"
// installs Hooks.Prof and pays one indexed counter add per dispatch.
// scripts/bench.sh derives profiler_overhead_pct from the two ns/inst
// numbers; the off case must stay within noise of the pre-profiler
// baseline.
func BenchmarkCPURunProfiler(b *testing.B) {
	img, err := workload.Matmul(24, false, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		prof bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			mem := emu.NewMemory()
			mem.MapImage(img)
			cpu := emu.NewCPU(mem, riscv.RV64GC)
			// Pin the block tier so the profiler numbers stay comparable
			// with the pre-trace baseline (per-block attribution).
			cpu.TraceThreshold = 0
			if mode.prof {
				cpu.SetHooks(&instrument.Hooks{Prof: instrument.NewProfile()})
			}
			warmStable(cpu.TraceThreshold, func() emu.BlockStats { return cpu.Blocks }, func() {
				cpu.Reset(img)
				runToCompletion(b, cpu)
			})
			b.ReportAllocs()
			b.ResetTimer()
			start := cpu.Instret
			for i := 0; i < b.N; i++ {
				cpu.Reset(img)
				runToCompletion(b, cpu)
			}
			insts := cpu.Instret - start
			sec := b.Elapsed().Seconds()
			if insts > 0 && sec > 0 {
				b.ReportMetric(float64(insts)/sec/1e6, "Minst/s")
				b.ReportMetric(sec*1e9/float64(insts), "ns/inst")
			}
		})
	}
}

// BenchmarkCPURunInstrument measures the guest-instrumentation hook costs
// on the branchy integer hot loop: "off" is a bare CPU (no Hooks attached),
// "nilhooks" attaches a Hooks struct with no observers installed — the
// fuzzing service's idle shape, which must compile to the exact same µop
// stream as "off" (scripts/check.sh gates nilhooks within 2% of off and 0
// allocs/op) — "coverage" pays an edge-map update per block/trace dispatch,
// and "cmplog" rebuilds translations with cmp-operand logging burned in.
// scripts/bench.sh derives the instrument overhead percentages from the
// ns/inst numbers.
func BenchmarkCPURunInstrument(b *testing.B) {
	img, err := workload.Fibonacci(1000, riscv.RV64GC, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		install func(*instrument.Hooks)
	}{
		{"off", nil},
		{"nilhooks", func(h *instrument.Hooks) {}},
		{"coverage", func(h *instrument.Hooks) { h.Cov = instrument.NewCoverage() }},
		{"cmplog", func(h *instrument.Hooks) { h.Cmp = instrument.NewCmpLog() }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			mem := emu.NewMemory()
			mem.MapImage(img)
			cpu := emu.NewCPU(mem, riscv.RV64GC)
			if mode.install != nil {
				h := &instrument.Hooks{}
				mode.install(h)
				cpu.SetHooks(h)
			}
			warmStable(cpu.TraceThreshold, func() emu.BlockStats { return cpu.Blocks }, func() {
				cpu.Reset(img)
				runToCompletion(b, cpu)
			})
			b.ReportAllocs()
			b.ResetTimer()
			start := cpu.Instret
			for i := 0; i < b.N; i++ {
				cpu.Reset(img)
				runToCompletion(b, cpu)
			}
			insts := cpu.Instret - start
			sec := b.Elapsed().Seconds()
			if insts > 0 && sec > 0 {
				b.ReportMetric(float64(insts)/sec/1e6, "Minst/s")
				b.ReportMetric(sec*1e9/float64(insts), "ns/inst")
			}
		})
	}
}

// BenchmarkCPURunSPEC measures a SPEC-shaped synthetic driven through the
// kernel (syscalls, trampolines, indirect jumps), the shape the service's
// /run endpoint executes. The process is built once and re-run via
// Process.Reset — the serving steady state.
func BenchmarkCPURunSPEC(b *testing.B) {
	c := workload.SpecSuite()[0]
	c.Params.Rounds = 20
	img, err := workload.BuildSpec(c.Params, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range tierModes {
		b.Run(mode.name, func(b *testing.B) {
			v, err := kernel.VariantFromImage(img)
			if err != nil {
				b.Fatal(err)
			}
			p, err := kernel.NewProcess(c.Params.Name, []kernel.Variant{v})
			if err != nil {
				b.Fatal(err)
			}
			p.CPU.Interp = mode.interp
			p.CPU.TraceThreshold = mode.threshold
			warmStable(mode.threshold, func() emu.BlockStats { return p.CPU.Blocks }, func() {
				p.Reset()
				if _, err := bench.RunOnCore(p, riscv.RV64GCV); err != nil {
					b.Fatal(err)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			start := p.CPU.Instret
			for i := 0; i < b.N; i++ {
				p.Reset()
				if _, err := bench.RunOnCore(p, riscv.RV64GCV); err != nil {
					b.Fatal(err)
				}
			}
			insts := p.CPU.Instret - start
			sec := b.Elapsed().Seconds()
			if insts > 0 && sec > 0 {
				b.ReportMetric(float64(insts)/sec/1e6, "Minst/s")
				b.ReportMetric(sec*1e9/float64(insts), "ns/inst")
			}
		})
	}
}
