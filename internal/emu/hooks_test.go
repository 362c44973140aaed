package emu

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// observerCPU is codeCPU with a full observer set installed.
func observerCPU(t *testing.T, text []byte) (*CPU, *instrument.Hooks) {
	t.Helper()
	cpu := codeCPU(t, text)
	h := &instrument.Hooks{
		Cov: instrument.NewCoverage(),
		Cmp: instrument.NewCmpLog(),
		Mem: instrument.NewMemTrace(),
	}
	cpu.SetHooks(h)
	return cpu, h
}

// jalrLoopText is the alternating-target indirect-jump loop from
// TestTracePICIndirect: the shape whose trace promotion an indirect hook
// vetoes and a pure observer must not.
func jalrLoopText(t *testing.T) []byte {
	t.Helper()
	text := make([]byte, 0x48)
	copy(text[0x00:], enc(t,
		riscv.Inst{Op: riscv.ANDI, Rd: riscv.T1, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.SLLI, Rd: riscv.T1, Rs1: riscv.T1, Imm: 5},
		riscv.Inst{Op: riscv.ADD, Rd: riscv.T1, Rs1: riscv.T1, Rs2: riscv.A4},
		riscv.Inst{Op: riscv.JALR, Rd: riscv.Zero, Rs1: riscv.T1, Imm: 0},
	))
	copy(text[0x20:], enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -0x24},
	))
	copy(text[0x40:], enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: -0x44},
	))
	return text
}

// TestObserversDoNotVetoTracePromotion is the trace+hook interaction test:
// pure observers (coverage, cmp) must leave jalr trace stitching intact —
// traces promote, the burned indirect guard still side-exits precisely, and
// the architectural trajectory matches an identically-observed interpreter.
func TestObserversDoNotVetoTracePromotion(t *testing.T) {
	text := jalrLoopText(t)
	mk := func(interp bool) (*CPU, *instrument.Hooks) {
		cpu, h := observerCPU(t, text)
		cpu.Interp = interp
		cpu.X[riscv.A4] = obj.TextBase + 0x20
		return cpu, h
	}
	trc, htrc := mk(false)
	ref, href := mk(true)
	const slice = 89
	for i := 0; i < 20; i++ {
		st := trc.Run(slice)
		sr := ref.Run(slice)
		if st != sr {
			t.Fatalf("slice %d: stop %+v != ref %+v", i, st, sr)
		}
		sameState(t, "slice", trc, ref)
	}
	s := trc.Blocks
	if s.TracesBuilt == 0 {
		t.Fatalf("pure observers suppressed trace promotion: %+v", s)
	}
	if s.SideExits == 0 {
		t.Fatalf("burned indirect guard never exercised under observers: %+v", s)
	}
	// The trace tier actually stitched across the jalr: verify some trace
	// carries an expJalr guard, the seam an indirect hook would have vetoed.
	guarded := false
	for _, b := range trc.bcache {
		if b == nil || b.trace == nil {
			continue
		}
		for i := range b.trace.uops {
			if b.trace.uops[i].expect == expJalr {
				guarded = true
			}
		}
	}
	if !guarded {
		t.Error("no stitched trace carries an expJalr seam; jalr stitching was downgraded")
	}
	// Both engines logged the same comparisons (none here — the loop has no
	// conditional branch) and observers saw activity.
	if htrc.Cov.Edges() == 0 {
		t.Error("coverage map empty under the trace tier")
	}
	if href.Cov.Edges() != 0 {
		// The interpreter has no dispatch stream, so block-level coverage
		// stays empty there by design.
		t.Error("interpreter unexpectedly recorded block coverage")
	}
}

// TestIndirectHookStillVetoesJalrStitching pins the pre-existing contract:
// a target-rewriting hook keeps vetoing jalr seams even now that it shares
// the registration surface with observers.
func TestIndirectHookStillVetoesJalrStitching(t *testing.T) {
	cpu := codeCPU(t, jalrLoopText(t))
	h := &instrument.Hooks{Indirect: func(pc, target uint64) (uint64, uint64) { return target, 0 }}
	cpu.SetHooks(h)
	cpu.X[riscv.A4] = obj.TextBase + 0x20
	if stop := cpu.Run(5000); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	for _, b := range cpu.bcache {
		if b == nil || b.trace == nil {
			continue
		}
		for i := range b.trace.uops {
			if b.trace.uops[i].expect == expJalr {
				t.Fatal("expJalr seam stitched with an indirect hook installed")
			}
		}
	}
	if h.IndirectCalls == 0 {
		t.Error("indirect hook never fired")
	}
}

// TestCoverageParityBlocksVsTraces requires the two translation tiers to
// produce bit-identical coverage maps: every stitched block a trace enters
// is recorded exactly as a block-tier dispatch sequence would record it,
// including side exits and the halting dispatch.
func TestCoverageParityBlocksVsTraces(t *testing.T) {
	programs := map[string][]byte{
		"branch-flip": enc(t,
			riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
			riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
			riscv.Inst{Op: riscv.EBREAK},
		),
		"jalr-alternate": append(jalrLoopText(t), enc(t, riscv.Inst{Op: riscv.EBREAK})...),
	}
	for name, text := range programs {
		run := func(threshold uint32) *instrument.Coverage {
			cpu, h := observerCPU(t, text)
			cpu.TraceThreshold = threshold
			cpu.X[riscv.A2] = 500
			cpu.X[riscv.A4] = obj.TextBase + 0x20
			cpu.MaxInstret = 4000
			for {
				stop := cpu.Run(97) // prime slice: budget seams wander
				if stop.Kind == StopBreak || stop.Kind == StopBudget {
					break
				}
				if stop.Kind != StopLimit {
					t.Fatalf("%s: stop %+v", name, stop)
				}
			}
			if threshold != 0 && cpu.Blocks.TracesBuilt == 0 {
				t.Fatalf("%s: trace tier not exercised", name)
			}
			return h.Cov
		}
		blocks := run(0)
		traces := run(2)
		if blocks.Map != traces.Map {
			diff := 0
			for i := range blocks.Map {
				if blocks.Map[i] != traces.Map[i] {
					diff++
				}
			}
			t.Errorf("%s: coverage maps diverge between tiers (%d cells differ)", name, diff)
		}
		if blocks.Edges() == 0 {
			t.Errorf("%s: empty coverage map", name)
		}
	}
}

// TestCmpLogParityAcrossTiers requires identical comparison logs from the
// interpreter, the block tier, and the trace tier: same entries, same order,
// same operand values.
func TestCmpLogParityAcrossTiers(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
		riscv.Inst{Op: riscv.EBREAK},
	)
	run := func(interp bool, threshold uint32) *instrument.CmpLog {
		cpu, h := observerCPU(t, text)
		cpu.Interp = interp
		cpu.TraceThreshold = threshold
		cpu.X[riscv.A2] = 300
		for {
			stop := cpu.Run(101)
			if stop.Kind == StopBreak {
				break
			}
			if stop.Kind != StopLimit {
				t.Fatalf("stop %+v", stop)
			}
		}
		return h.Cmp
	}
	interp := run(true, 0)
	blocks := run(false, 0)
	traces := run(false, 2)
	if interp.N != 300 {
		t.Fatalf("interpreter logged %d comparisons, want 300", interp.N)
	}
	for tier, log := range map[string]*instrument.CmpLog{"blocks": blocks, "traces": traces} {
		if log.N != interp.N {
			t.Errorf("%s: logged %d comparisons, interpreter %d", tier, log.N, interp.N)
			continue
		}
		for i := 0; i < interp.Len(); i++ {
			if log.Entry(i) != interp.Entry(i) {
				t.Errorf("%s: entry %d = %+v, interpreter %+v", tier, i, log.Entry(i), interp.Entry(i))
				break
			}
		}
	}
}

// TestMemTraceParityAcrossTiers requires identical access logs from all
// three engines, with a faulting access appearing as the final entry.
func TestMemTraceParityAcrossTiers(t *testing.T) {
	// Store then load a scratch cell each iteration; final load faults.
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.SD, Rs1: riscv.A3, Rs2: riscv.A0, Imm: 0},
		riscv.Inst{Op: riscv.LW, Rd: riscv.A1, Rs1: riscv.A3, Imm: 0},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -12},
		riscv.Inst{Op: riscv.LD, Rd: riscv.A1, Rs1: riscv.Zero, Imm: 0}, // faults
	)
	run := func(interp bool, threshold uint32) *instrument.MemTrace {
		cpu, h := observerCPU(t, text)
		cpu.Interp = interp
		cpu.TraceThreshold = threshold
		cpu.Mem.Map(0x200000, obj.PageSize, obj.PermRW)
		cpu.X[riscv.A3] = 0x200000
		cpu.X[riscv.A2] = 200
		for {
			stop := cpu.Run(103)
			if stop.Kind == StopFault {
				if stop.Fault.Kind != FaultAccess {
					t.Fatalf("fault %+v", stop.Fault)
				}
				break
			}
			if stop.Kind != StopLimit {
				t.Fatalf("stop %+v", stop)
			}
		}
		return h.Mem
	}
	interp := run(true, 0)
	blocks := run(false, 0)
	traces := run(false, 2)
	if want := uint64(200*2 + 1); interp.N != want {
		t.Fatalf("interpreter logged %d accesses, want %d", interp.N, want)
	}
	last := interp.Entry(interp.Len() - 1)
	if last.Addr != 0 || last.Size != 8 || last.Write {
		t.Fatalf("faulting access not final entry: %+v", last)
	}
	for tier, log := range map[string]*instrument.MemTrace{"blocks": blocks, "traces": traces} {
		if log.N != interp.N {
			t.Errorf("%s: logged %d accesses, interpreter %d", tier, log.N, interp.N)
			continue
		}
		for i := 0; i < interp.Len(); i++ {
			if log.Entry(i) != interp.Entry(i) {
				t.Errorf("%s: entry %d = %+v, interpreter %+v", tier, i, log.Entry(i), interp.Entry(i))
				break
			}
		}
	}
}

// TestNilObserversCompileIdenticalUops is the zero-cost-when-off contract
// at the µop level: a CPU with no hooks, and one with a hook set holding no
// observers, must build bit-identical blocks (hook flags all zero).
func TestNilObserversCompileIdenticalUops(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.SD, Rs1: riscv.SP, Rs2: riscv.A0, Imm: -8},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -8},
	)
	bare := codeCPU(t, text)
	hooked := codeCPU(t, text)
	hooked.SetHooks(&instrument.Hooks{
		Indirect: func(pc, target uint64) (uint64, uint64) { return target, 0 },
	})
	if hooked.obs != 0 {
		t.Fatalf("observer mask %#x with no observers installed", hooked.obs)
	}
	a := bare.blockFor(obj.TextBase)
	b := hooked.blockFor(obj.TextBase)
	if a == nil || b == nil {
		t.Fatal("block build failed")
	}
	if len(a.uops) != len(b.uops) {
		t.Fatalf("uop counts differ: %d vs %d", len(a.uops), len(b.uops))
	}
	for i := range a.uops {
		if a.uops[i] != b.uops[i] {
			t.Errorf("uop %d differs: %+v vs %+v", i, a.uops[i], b.uops[i])
		}
		if a.uops[i].hook != 0 {
			t.Errorf("uop %d carries hook flags %#x with no observers", i, a.uops[i].hook)
		}
	}
}

// TestObserverFlipRekeysTranslations: installing a cmp/mem observer changes
// the translation key, so stale blocks rebuild with hook flags burned in —
// and uninstalling rebuilds them clean again. Swapping only the indirect
// hook must NOT invalidate anything (it is runtime-checked).
func TestObserverFlipRekeysTranslations(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
		riscv.Inst{Op: riscv.EBREAK},
	)
	cpu := codeCPU(t, text)
	cpu.X[riscv.A2] = 1 << 40 // never taken: loop forever under slices
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	built := cpu.Blocks.Built

	// Indirect hook swap: no rebuild.
	h := &instrument.Hooks{Indirect: func(pc, target uint64) (uint64, uint64) { return target, 0 }}
	cpu.SetHooks(h)
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	if cpu.Blocks.Built != built {
		t.Fatalf("indirect hook swap rebuilt translations: %d -> %d", built, cpu.Blocks.Built)
	}

	// Observer install: rebuild with hook flags.
	h.Cmp = instrument.NewCmpLog()
	cpu.RefreshHooks()
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	if cpu.Blocks.Built == built {
		t.Fatal("cmp observer install did not rekey translations")
	}
	if h.Cmp.N == 0 {
		t.Fatal("rebuilt block logs no comparisons")
	}
	blk := cpu.blockFor(obj.TextBase)
	if blk == nil || blk.obs != hookCmp {
		t.Fatalf("rebuilt block obs = %#x, want hookCmp", blk.obs)
	}

	// Observer uninstall: rebuild clean.
	h.Cmp = nil
	cpu.RefreshHooks()
	if stop := cpu.Run(100); stop.Kind != StopLimit {
		t.Fatalf("stop: %+v", stop)
	}
	blk = cpu.blockFor(obj.TextBase)
	if blk == nil || blk.obs != 0 {
		t.Fatalf("block after uninstall obs = %#x, want 0", blk.obs)
	}
	for i := range blk.uops {
		if blk.uops[i].hook != 0 {
			t.Fatalf("uop %d keeps hook flags after observer uninstall", i)
		}
	}
}

// translatedUops runs the BenchmarkCPURunInstrument program (Fibonacci,
// default trace threshold) to its exit with install's hook set, then
// returns every cached block's µops and every compiled trace's µops, keyed
// by start pc.
func translatedUops(t *testing.T, install func() *instrument.Hooks) (blocks, traces map[uint64][]uop) {
	t.Helper()
	img, err := workload.Fibonacci(1000, riscv.RV64GC, true)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	mem.MapImage(img)
	cpu := NewCPU(mem, riscv.RV64GC)
	if install != nil {
		cpu.SetHooks(install())
	}
	cpu.Reset(img)
	for {
		stop := cpu.Run(50_000_000)
		if stop.Kind == StopEcall {
			break
		}
		if stop.Kind != StopLimit {
			t.Fatalf("unexpected stop: %+v", stop)
		}
	}
	blocks, traces = map[uint64][]uop{}, map[uint64][]uop{}
	for _, b := range cpu.bcache {
		if b == nil {
			continue
		}
		blocks[b.pc] = b.uops
		if b.trace != nil {
			traces[b.pc] = b.trace.uops
		}
	}
	return blocks, traces
}

// sameUops requires two translation sets to hold the same starts with
// identical µop streams, op for op.
func sameUops(t *testing.T, tier, mode string, got, want map[uint64][]uop) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s tier has %d translations, off has %d", mode, tier, len(got), len(want))
	}
	for pc, w := range want {
		g, ok := got[pc]
		if !ok {
			t.Fatalf("%s: %s tier lacks the translation at %#x", mode, tier, pc)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: %s %#x has %d µops, off has %d", mode, tier, pc, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s %#x µop %d = %+v, off has %+v", mode, tier, pc, i, g[i], w[i])
			}
		}
	}
}

// TestDispatchObserversCompileIdenticalUops is the exact form of the
// nil-hook overhead gate: the BenchmarkCPURunInstrument program compiles to
// the same block-tier and trace-tier µop streams, op for op, with no hooks,
// with an empty hook set, and with either per-dispatch observer (coverage,
// profiler) installed. Those observers cost a dispatch-time check and
// nothing inside a translation.
func TestDispatchObserversCompileIdenticalUops(t *testing.T) {
	offBlocks, offTraces := translatedUops(t, nil)
	if len(offTraces) == 0 {
		t.Fatal("no traces compiled: the trace tier is not compared")
	}
	for _, u := range offBlocks {
		for i := range u {
			if u[i].hook != 0 {
				t.Fatalf("off build carries hook flags %#x", u[i].hook)
			}
		}
	}
	for _, mode := range []struct {
		name    string
		install func() *instrument.Hooks
	}{
		{"nilhooks", func() *instrument.Hooks { return &instrument.Hooks{} }},
		{"coverage", func() *instrument.Hooks { return &instrument.Hooks{Cov: instrument.NewCoverage()} }},
		{"profiler", func() *instrument.Hooks { return &instrument.Hooks{Prof: instrument.NewProfile()} }},
	} {
		blocks, traces := translatedUops(t, mode.install)
		sameUops(t, "block", mode.name, blocks, offBlocks)
		sameUops(t, "trace", mode.name, traces, offTraces)
	}
}

// TestProfilerInstallAndSwap: installing the profiler rekeys translations
// so blocks get counter slots, and swapping in a second Profile — whose
// slot numbers the live blocks do not carry — still attributes every
// dispatch to the right pc: each profile's totals are exactly the
// instructions and cycles retired while it was installed.
func TestProfilerInstallAndSwap(t *testing.T) {
	text := enc(t,
		riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.A0, Imm: 1},
		riscv.Inst{Op: riscv.BNE, Rs1: riscv.A0, Rs2: riscv.A2, Imm: -4},
		riscv.Inst{Op: riscv.EBREAK},
	)
	for _, threshold := range []uint32{0, 2} {
		cpu := codeCPU(t, text)
		cpu.TraceThreshold = threshold
		cpu.X[riscv.A2] = 1 << 40 // never taken: loop forever under slices
		h := &instrument.Hooks{}
		cpu.SetHooks(h)
		if stop := cpu.Run(100); stop.Kind != StopLimit {
			t.Fatalf("stop: %+v", stop)
		}
		built := cpu.Blocks.Built
		for _, prof := range []*instrument.Profile{instrument.NewProfile(), instrument.NewProfile()} {
			prof.Slot(0xdead0) // the swap must not line up slot numbers
			h.Prof = prof
			cpu.RefreshHooks()
			instret, cycles := cpu.Instret, cpu.Cycles
			if stop := cpu.Run(1000); stop.Kind != StopLimit {
				t.Fatalf("stop: %+v", stop)
			}
			gotCycles, gotInstret := prof.Totals()
			if gotInstret != cpu.Instret-instret || gotCycles != cpu.Cycles-cycles {
				t.Errorf("threshold %d: profile totals (%d cycles, %d instret), run retired (%d, %d)",
					threshold, gotCycles, gotInstret, cpu.Cycles-cycles, cpu.Instret-instret)
			}
			if s := prof.Samples(); s[len(s)-1].PC != obj.TextBase {
				t.Errorf("threshold %d: samples %+v, want the loop block last", threshold, s)
			}
		}
		if cpu.Blocks.Built == built {
			t.Errorf("threshold %d: profiler install did not rekey translations", threshold)
		}
	}
}
