package rewriters

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// buildProgram assembles a program with a function call, a loop, an
// indirect jump through a function pointer, and vector work — the control
// flow shapes the baselines must survive.
func buildProgram(t *testing.T, compress bool) *obj.Image {
	t.Helper()
	isa := riscv.RV64G | riscv.ExtV
	if compress {
		isa = riscv.RV64GCV
	}
	b := asm.NewBuilder(isa)
	b.Compress = compress
	b.DataF64("vecA", []float64{1, 2, 3, 4})
	b.Zero("out", 64)

	b.Func("main")
	b.Li(riscv.S2, 0)
	b.Li(riscv.S4, 3) // loop bound
	b.Li(riscv.S5, 0)
	b.Label("loop")
	b.Call("work")
	b.Op(riscv.ADD, riscv.S2, riscv.S2, riscv.A0)
	b.Imm(riscv.ADDI, riscv.S5, riscv.S5, 1)
	b.Blt(riscv.S5, riscv.S4, "loop")
	// Indirect calls through a function pointer: these land on original
	// addresses, the case that separates the baselines.
	b.La(riscv.S6, "work")
	b.Li(riscv.S5, 0)
	b.Li(riscv.S4, 20)
	b.Label("iloop")
	b.I(riscv.Inst{Op: riscv.JALR, Rd: riscv.RA, Rs1: riscv.S6})
	b.Op(riscv.ADD, riscv.S2, riscv.S2, riscv.A0)
	b.Imm(riscv.ADDI, riscv.S5, riscv.S5, 1)
	b.Blt(riscv.S5, riscv.S4, "iloop")
	b.Mv(riscv.A0, riscv.S2)
	b.Ecall()

	// Inflate the code section past jal's ±1MB reach, like the >1MB SPEC
	// binaries §6.2 selects; the sled is never executed.
	for i := 0; i < 300_000; i++ {
		b.Nop()
	}

	b.Func("work")
	b.La(riscv.A1, "vecA")
	b.La(riscv.A2, "out")
	b.Li(riscv.A3, 4)
	b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.A1})
	b.I(riscv.Inst{Op: riscv.VFADDVV, Rd: 2, Rs1: 1, Rs2: 1})
	b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 2, Rs1: riscv.A2})
	b.Load(riscv.LD, riscv.A0, riscv.A2, 8) // 2*2.0 as float bits... use int view
	b.I(riscv.Inst{Op: riscv.FMVDX, Rd: 1, Rs1: riscv.A0})
	b.I(riscv.Inst{Op: riscv.FCVTLD, Rd: riscv.A0, Rs1: 1})
	b.Ret()

	img, err := b.Build("baselinetest", "main")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// run executes a rewritten image with the baseline-appropriate runtime
// assists and returns the CPU and trap count.
func run(t *testing.T, rw *Rewritten, isa riscv.Ext, hook bool) (*emu.CPU, int) {
	t.Helper()
	mem := emu.NewMemory()
	mem.MapImage(rw.Image)
	cpu := emu.NewCPU(mem, isa)
	cpu.Reset(rw.Image)
	if hook {
		ts, te := uint64(obj.TextBase), uint64(obj.TextBase)
		if s := rw.Image.Text(); s != nil {
			ts, te = s.Addr, s.End()
		}
		cpu.SetHooks(&instrument.Hooks{Indirect: SaferHook(rw.AddrMap, ts, te)})
	}
	traps := 0
	for i := 0; i < 100000; i++ {
		stop := cpu.Run(5_000_000)
		switch stop.Kind {
		case emu.StopEcall:
			return cpu, traps
		case emu.StopBreak:
			traps++
			if tgt, ok := rw.Tables.Trap[cpu.PC]; ok {
				cpu.PC = tgt
				continue
			}
			if resume, ok := rw.Tables.ExitTrap[cpu.PC]; ok && resume != 0 {
				cpu.PC = resume
				continue
			}
			t.Fatalf("unhandled ebreak at %#x", cpu.PC)
		default:
			t.Fatalf("stop %+v at pc=%#x (last %v)", stop, cpu.PC, cpu.LastInst)
		}
	}
	t.Fatal("did not finish")
	return nil, 0
}

func reference(t *testing.T, img *obj.Image) int64 {
	t.Helper()
	mem := emu.NewMemory()
	mem.MapImage(img)
	cpu := emu.NewCPU(mem, riscv.RV64GCV)
	cpu.Reset(img)
	stop := cpu.Run(10_000_000)
	if stop.Kind != emu.StopEcall {
		t.Fatalf("reference stop %+v", stop)
	}
	return int64(cpu.X[riscv.A0])
}

func TestARMoreDowngrade(t *testing.T) {
	for _, compress := range []bool{false, true} {
		img := buildProgram(t, compress)
		want := reference(t, img)
		rw, err := Rewrite(img, "armore", Options{Target: riscv.RV64GC})
		if err != nil {
			t.Fatal(err)
		}
		cpu, traps := run(t, rw, riscv.RV64GC, false)
		if got := int64(cpu.X[riscv.A0]); got != want {
			t.Errorf("compress=%v: result %d, want %d", compress, got, want)
		}
		// The indirect call lands on an original-text trampoline.
		if rw.Stats.Trampolines == 0 {
			t.Error("no trampolines placed")
		}
		_ = traps
	}
}

func TestARMoreTrapsOnCompressedSlots(t *testing.T) {
	img := buildProgram(t, true)
	rw, err := Rewrite(img, "armore", Options{Target: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Stats.TrapTrampolines == 0 {
		t.Error("compressed binary produced no trap trampolines; 2-byte slots cannot hold jal")
	}
}

func TestSaferDowngrade(t *testing.T) {
	for _, compress := range []bool{false, true} {
		img := buildProgram(t, compress)
		want := reference(t, img)
		rw, err := Rewrite(img, "safer", Options{Target: riscv.RV64GC})
		if err != nil {
			t.Fatal(err)
		}
		cpu, _ := run(t, rw, riscv.RV64GC, true)
		if got := int64(cpu.X[riscv.A0]); got != want {
			t.Errorf("compress=%v: result %d, want %d", compress, got, want)
		}
		if cpu.Hooks.IndirectCalls == 0 {
			t.Error("Safer executed no pointer checks")
		}
	}
}

func TestSaferDropsOriginalText(t *testing.T) {
	img := buildProgram(t, false)
	rw, err := Rewrite(img, "safer", Options{Target: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	if s := rw.Image.Section(obj.SecText); s == nil || s.Perm&obj.PermX != 0 {
		t.Error("regeneration left the original text executable")
	}
}

func TestStrawmanAndCHBPWrappers(t *testing.T) {
	img := buildProgram(t, true)
	sm, err := Rewrite(img, "strawman", Options{Target: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Stats.TrapEntries == 0 {
		t.Error("strawman placed no trap entries")
	}
	ch, err := Rewrite(img, "chbp", Options{Target: riscv.RV64GC})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stats.SmileEntries == 0 {
		t.Error("CHBP placed no SMILE entries")
	}
}

func TestEmptyPatchBaselines(t *testing.T) {
	img := buildProgram(t, true)
	want := reference(t, img)
	ar, err := Rewrite(img, "armore", Options{Target: riscv.RV64GCV, EmptyPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := run(t, ar, riscv.RV64GCV, false)
	if got := int64(cpu.X[riscv.A0]); got != want {
		t.Errorf("armore empty-patch result %d, want %d", got, want)
	}
	sf, err := Rewrite(img, "safer", Options{Target: riscv.RV64GCV, EmptyPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ = run(t, sf, riscv.RV64GCV, true)
	if got := int64(cpu.X[riscv.A0]); got != want {
		t.Errorf("safer empty-patch result %d, want %d", got, want)
	}
}

func TestCostOrdering(t *testing.T) {
	// On the same workload, the paper's ordering must emerge: CHBP cheapest,
	// then Safer, then ARMore (trap-heavy on compressed RISC-V binaries).
	img := buildProgram(t, true)

	runCycles := func(rewritten *Rewritten, hook bool, isa riscv.Ext) uint64 {
		cpu, _ := run(t, rewritten, isa, hook)
		return cpu.Cycles
	}

	ch, err := Rewrite(img, "chbp", Options{Target: riscv.RV64GCV, EmptyPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	chCPU, _ := run(t, ch, riscv.RV64GCV, false)

	sf, err := Rewrite(img, "safer", Options{Target: riscv.RV64GCV, EmptyPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	sfCycles := runCycles(sf, true, riscv.RV64GCV)

	ar, err := Rewrite(img, "armore", Options{Target: riscv.RV64GCV, EmptyPatch: true})
	if err != nil {
		t.Fatal(err)
	}
	arCPU, arTraps := run(t, ar, riscv.RV64GCV, false)
	// Traps cost kernel time not visible in cpu.Cycles; add the charge here
	// the way the kernel does.
	arCycles := arCPU.Cycles + uint64(arTraps)*700

	if !(chCPU.Cycles < sfCycles) {
		t.Errorf("CHBP (%d) not cheaper than Safer (%d)", chCPU.Cycles, sfCycles)
	}
	if !(sfCycles < arCycles) {
		t.Errorf("Safer (%d) not cheaper than ARMore (%d, %d traps)", sfCycles, arCycles, arTraps)
	}
}
