package emu

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// harness loads raw instruction words at TextBase and returns a CPU ready to
// step them.
func harness(t *testing.T, isa riscv.Ext, words ...uint32) *CPU {
	t.Helper()
	text := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(text[i*4:], w)
	}
	mem := NewMemory()
	mem.Map(obj.TextBase, uint64(len(text))+16, obj.PermRX)
	mem.write(obj.TextBase, text)
	mem.Map(0x40000, obj.PageSize, obj.PermRW)
	mem.Map(obj.StackTop-obj.StackSize, obj.StackSize, obj.PermRW)
	cpu := NewCPU(mem, isa)
	cpu.PC = obj.TextBase
	cpu.X[riscv.SP] = obj.StackTop
	return cpu
}

func step(t *testing.T, c *CPU) {
	t.Helper()
	if stop, halted := c.Step(); halted {
		t.Fatalf("unexpected stop %+v at pc=%#x", stop, c.PC)
	}
}

func w(i riscv.Inst) uint32 { return riscv.MustEncode(i) }

func TestALUBasics(t *testing.T) {
	c := harness(t, riscv.RV64GC,
		w(riscv.Inst{Op: riscv.ADDI, Rd: riscv.A0, Rs1: riscv.Zero, Imm: 5}),
		w(riscv.Inst{Op: riscv.SLLI, Rd: riscv.A1, Rs1: riscv.A0, Imm: 4}),
		w(riscv.Inst{Op: riscv.SUB, Rd: riscv.A2, Rs1: riscv.A1, Rs2: riscv.A0}),
	)
	step(t, c)
	step(t, c)
	step(t, c)
	if c.X[riscv.A0] != 5 || c.X[riscv.A1] != 80 || c.X[riscv.A2] != 75 {
		t.Errorf("a0,a1,a2 = %d,%d,%d", c.X[riscv.A0], c.X[riscv.A1], c.X[riscv.A2])
	}
	if c.Instret != 3 || c.Cycles == 0 {
		t.Errorf("instret=%d cycles=%d", c.Instret, c.Cycles)
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	c := harness(t, riscv.RV64GC,
		w(riscv.Inst{Op: riscv.ADDI, Rd: riscv.Zero, Rs1: riscv.Zero, Imm: 42}))
	step(t, c)
	if c.X[0] != 0 {
		t.Error("write to x0 stuck")
	}
}

func TestDivisionCornerCases(t *testing.T) {
	run2 := func(op riscv.Op, a, b uint64) uint64 {
		c := harness(t, riscv.RV64GC, w(riscv.Inst{Op: op, Rd: riscv.A0, Rs1: riscv.A1, Rs2: riscv.A2}))
		c.X[riscv.A1], c.X[riscv.A2] = a, b
		step(t, c)
		return c.X[riscv.A0]
	}
	if got := run2(riscv.DIV, 7, 0); got != ^uint64(0) {
		t.Errorf("div by zero = %#x, want all ones", got)
	}
	if got := run2(riscv.REM, 7, 0); got != 7 {
		t.Errorf("rem by zero = %d, want dividend", got)
	}
	minInt := uint64(1) << 63
	if got := run2(riscv.DIV, minInt, ^uint64(0)); got != minInt {
		t.Errorf("INT_MIN/-1 = %#x, want INT_MIN", got)
	}
	if got := run2(riscv.REM, minInt, ^uint64(0)); got != 0 {
		t.Errorf("INT_MIN%%-1 = %d, want 0", got)
	}
}

func TestMulhQuick(t *testing.T) {
	// Property: mulh matches big-integer reference via math/bits-free check
	// using 128-bit decomposition through float-free arithmetic.
	f := func(a, b int64) bool {
		c := harness(t, riscv.RV64GC, w(riscv.Inst{Op: riscv.MULH, Rd: riscv.A0, Rs1: riscv.A1, Rs2: riscv.A2}))
		c.X[riscv.A1], c.X[riscv.A2] = uint64(a), uint64(b)
		if stop, halted := c.Step(); halted {
			t.Logf("stop: %+v", stop)
			return false
		}
		hi, _ := mul64(a, b)
		return c.X[riscv.A0] == uint64(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulu64AgainstSchoolbook(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mulu64(a, b)
		// Reference via 32-bit limbs.
		al, ah := a&0xFFFFFFFF, a>>32
		bl, bh := b&0xFFFFFFFF, b>>32
		p0 := al * bl
		p1 := al * bh
		p2 := ah * bl
		p3 := ah * bh
		carry := (p0>>32 + p1&0xFFFFFFFF + p2&0xFFFFFFFF) >> 32
		wantHi := p3 + p1>>32 + p2>>32 + carry
		return lo == a*b && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoadStore(t *testing.T) {
	c := harness(t, riscv.RV64GC,
		w(riscv.Inst{Op: riscv.SD, Rs1: riscv.A1, Rs2: riscv.A0, Imm: 8}),
		w(riscv.Inst{Op: riscv.LW, Rd: riscv.A2, Rs1: riscv.A1, Imm: 8}),
		w(riscv.Inst{Op: riscv.LBU, Rd: riscv.A3, Rs1: riscv.A1, Imm: 11}),
	)
	c.X[riscv.A0] = 0xFFFFFFFF_80000000
	c.X[riscv.A1] = 0x40000
	step(t, c)
	step(t, c)
	step(t, c)
	if int64(c.X[riscv.A2]) != -0x80000000 {
		t.Errorf("lw sign extension: %#x", c.X[riscv.A2])
	}
	if c.X[riscv.A3] != 0x80 {
		t.Errorf("lbu: %#x", c.X[riscv.A3])
	}
}

func TestFaults(t *testing.T) {
	t.Run("exec of data segment is SIGSEGV", func(t *testing.T) {
		c := harness(t, riscv.RV64GC, w(riscv.Inst{Op: riscv.JALR, Rd: riscv.Zero, Rs1: riscv.A0}))
		c.X[riscv.A0] = 0x40000 // RW page: mapped but NX
		stop, halted := c.Step()
		if halted {
			t.Fatal("jalr itself should not fault")
		}
		stop, halted = c.Step()
		if !halted || stop.Kind != StopFault || stop.Fault.Kind != FaultAccess {
			t.Fatalf("stop = %+v, want SIGSEGV", stop)
		}
		if stop.Fault.PC != 0x40000 {
			t.Errorf("fault pc = %#x, want the data address", stop.Fault.PC)
		}
	})
	t.Run("unmapped fetch is SIGSEGV", func(t *testing.T) {
		c := harness(t, riscv.RV64GC)
		c.PC = 0x9999000
		stop, halted := c.Step()
		if !halted || stop.Fault.Kind != FaultAccess {
			t.Fatalf("stop = %+v", stop)
		}
	})
	t.Run("vector on base core is SIGILL", func(t *testing.T) {
		c := harness(t, riscv.RV64GC, w(riscv.Inst{Op: riscv.VADDVV, Rd: 1, Rs1: 2, Rs2: 3}))
		stop, halted := c.Step()
		if !halted || stop.Fault.Kind != FaultIllegal {
			t.Fatalf("stop = %+v, want SIGILL", stop)
		}
		if stop.Fault.PC != obj.TextBase {
			t.Errorf("fault pc = %#x", stop.Fault.PC)
		}
	})
	t.Run("vector on extension core executes", func(t *testing.T) {
		c := harness(t, riscv.RV64GCV,
			w(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.Zero, Imm: riscv.VType(riscv.E64)}),
			w(riscv.Inst{Op: riscv.VADDVV, Rd: 1, Rs1: 2, Rs2: 3}))
		step(t, c)
		step(t, c)
	})
	t.Run("store to rodata is SIGSEGV", func(t *testing.T) {
		c := harness(t, riscv.RV64GC, w(riscv.Inst{Op: riscv.SD, Rs1: riscv.A0, Rs2: riscv.A1}))
		c.X[riscv.A0] = obj.TextBase // RX page
		stop, halted := c.Step()
		if !halted || stop.Fault.Kind != FaultAccess {
			t.Fatalf("stop = %+v", stop)
		}
	})
	t.Run("wide prefix is SIGILL", func(t *testing.T) {
		c := harness(t, riscv.RV64GC, 0x0000001F)
		stop, halted := c.Step()
		if !halted || stop.Fault.Kind != FaultIllegal {
			t.Fatalf("stop = %+v", stop)
		}
	})
}

func TestEcallAndBreak(t *testing.T) {
	c := harness(t, riscv.RV64GC, w(riscv.Inst{Op: riscv.ECALL}), w(riscv.Inst{Op: riscv.EBREAK}))
	stop, halted := c.Step()
	if !halted || stop.Kind != StopEcall {
		t.Fatalf("ecall stop = %+v", stop)
	}
	// PC does not advance on ecall: the kernel does that after servicing.
	if c.PC != obj.TextBase {
		t.Errorf("pc advanced on ecall: %#x", c.PC)
	}
	c.PC += 4
	stop, halted = c.Step()
	if !halted || stop.Kind != StopBreak {
		t.Fatalf("ebreak stop = %+v", stop)
	}
}

func TestJALRSameRegisterHazard(t *testing.T) {
	// jalr gp, imm(gp) must read gp before writing the return address — the
	// SMILE trampoline depends on this ordering (§4.2).
	c := harness(t, riscv.RV64GC, w(riscv.Inst{Op: riscv.JALR, Rd: riscv.GP, Rs1: riscv.GP, Imm: 16}))
	c.X[riscv.GP] = obj.TextBase + 0x100
	stop, halted := c.Step()
	if halted {
		t.Fatalf("stop: %+v", stop)
	}
	if c.PC != obj.TextBase+0x110 {
		t.Errorf("jumped to %#x, want %#x", c.PC, obj.TextBase+0x110)
	}
	if c.X[riscv.GP] != obj.TextBase+4 {
		t.Errorf("gp (return address) = %#x, want %#x", c.X[riscv.GP], obj.TextBase+4)
	}
}

func TestVectorPipeline(t *testing.T) {
	// Vector add of 4 doubles: v1 = v2 + v3 through memory.
	c := harness(t, riscv.RV64GCV,
		w(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)}),
		w(riscv.Inst{Op: riscv.VLE64V, Rd: 2, Rs1: riscv.A0}),
		w(riscv.Inst{Op: riscv.VLE64V, Rd: 3, Rs1: riscv.A1}),
		w(riscv.Inst{Op: riscv.VFADDVV, Rd: 1, Rs1: 2, Rs2: 3}),
		w(riscv.Inst{Op: riscv.VSE64V, Rd: 1, Rs1: riscv.A2}),
	)
	base := uint64(0x40000)
	for i := 0; i < 4; i++ {
		c.Mem.WriteUint64(base+uint64(i*8), math.Float64bits(float64(i+1)))     // 1..4
		c.Mem.WriteUint64(base+64+uint64(i*8), math.Float64bits(float64(10*i))) // 0,10,20,30
	}
	c.X[riscv.A0], c.X[riscv.A1], c.X[riscv.A2], c.X[riscv.A3] = base, base+64, base+128, 4
	for i := 0; i < 5; i++ {
		step(t, c)
	}
	if c.VL != 4 {
		t.Fatalf("vl = %d", c.VL)
	}
	want := []float64{1, 12, 23, 34}
	for i, wv := range want {
		bits, err := c.Mem.ReadUint64(base + 128 + uint64(i*8))
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64frombits(bits); got != wv {
			t.Errorf("elem %d = %v, want %v", i, got, wv)
		}
	}
}

func TestVsetvliClampsToVLMax(t *testing.T) {
	c := harness(t, riscv.RV64GCV,
		w(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A0, Imm: riscv.VType(riscv.E64)}))
	c.X[riscv.A0] = 100
	step(t, c)
	if c.VL != 4 || c.X[riscv.T0] != 4 { // 256-bit VLEN / 64-bit SEW
		t.Errorf("vl = %d, t0 = %d, want 4", c.VL, c.X[riscv.T0])
	}
}

func TestVectorReduction(t *testing.T) {
	c := harness(t, riscv.RV64GCV,
		w(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T0, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)}),
		w(riscv.Inst{Op: riscv.VLE64V, Rd: 2, Rs1: riscv.A0}),
		w(riscv.Inst{Op: riscv.VMVVI, Rd: 1, Imm: 0}),
		w(riscv.Inst{Op: riscv.VFREDUSUMVS, Rd: 4, Rs1: 1, Rs2: 2}),
		w(riscv.Inst{Op: riscv.VFMVFS, Rd: 5, Rs2: 4}),
	)
	base := uint64(0x40000)
	for i := 0; i < 4; i++ {
		c.Mem.WriteUint64(base+uint64(i*8), math.Float64bits(float64(i+1)))
	}
	c.X[riscv.A0], c.X[riscv.A3] = base, 4
	for i := 0; i < 5; i++ {
		step(t, c)
	}
	if got := math.Float64frombits(c.F[5]); got != 10 {
		t.Errorf("reduction = %v, want 10", got)
	}
}

func TestFloatOps(t *testing.T) {
	c := harness(t, riscv.RV64GC,
		w(riscv.Inst{Op: riscv.FCVTDL, Rd: 1, Rs1: riscv.A0}),
		w(riscv.Inst{Op: riscv.FCVTDL, Rd: 2, Rs1: riscv.A1}),
		w(riscv.Inst{Op: riscv.FMADDD, Rd: 3, Rs1: 1, Rs2: 2, Rs3: 1}),
		w(riscv.Inst{Op: riscv.FCVTLD, Rd: riscv.A2, Rs1: 3}),
	)
	c.X[riscv.A0], c.X[riscv.A1] = 3, 4
	for i := 0; i < 4; i++ {
		step(t, c)
	}
	if c.X[riscv.A2] != 15 { // 3*4+3
		t.Errorf("fma result = %d, want 15", c.X[riscv.A2])
	}
}

func TestMemorySharing(t *testing.T) {
	m1 := NewMemory()
	m1.Map(0x1000, obj.PageSize, obj.PermRW)
	m2 := NewMemory()
	m2.ShareFrom(m1, 0x1000, obj.PageSize)
	m1.WriteUint64(0x1000, 0xDEAD)
	v, err := m2.ReadUint64(0x1000)
	if err != nil || v != 0xDEAD {
		t.Errorf("shared frame read = %#x, %v", v, err)
	}
	// Clone must *not* share.
	m3 := m1.Clone()
	m1.WriteUint64(0x1000, 0xBEEF)
	v, _ = m3.ReadUint64(0x1000)
	if v != 0xDEAD {
		t.Errorf("clone shares frames: %#x", v)
	}
}

// TestDirtyLog checks that a tracked frame is logged once per clean-to-dirty
// transition whichever address space writes it, and that clones and
// untracked frames are never logged.
func TestDirtyLog(t *testing.T) {
	m1 := NewMemory()
	m1.Map(0x1000, 2*obj.PageSize, obj.PermRW)
	m2 := NewMemory()
	m2.ShareFrom(m1, 0x1000, obj.PageSize)
	var l DirtyLog
	pg, _ := m1.Page(0x1000)
	if s := l.Track(pg); s != 0 || l.Track(pg) != 0 {
		t.Fatalf("slot %d, want 0 on both Tracks", s)
	}
	m2.WriteUint64(0x1008, 1) // through the sharing address space
	m1.WriteUint64(0x1010, 2) // already dirty: not logged again
	m1.WriteUint64(0x2000, 3) // untracked frame
	m1.Clone().WriteUint64(0x1000, 4)
	if d := l.Drain(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("logged %v, want [0]", d)
	}
	pg.ClearDirty()
	m1.Poke(0x1000, []byte{5})
	if d := l.Drain(); len(d) != 1 {
		t.Fatalf("logged %v after ClearDirty and Poke, want one entry", d)
	}
	l.Untrack()
	pg.ClearDirty()
	m2.WriteUint64(0x1000, 6)
	if d := l.Drain(); len(d) != 0 {
		t.Fatalf("logged %v after Untrack", d)
	}
}

func TestCompressedExecution(t *testing.T) {
	// c.li a0, 10 ; c.addi a0, 5 ; ecall
	text := []byte{0x29, 0x45, 0x15, 0x05, 0x73, 0x00, 0x00, 0x00}
	mem := NewMemory()
	mem.Map(obj.TextBase, uint64(len(text)), obj.PermRX)
	mem.write(obj.TextBase, text)
	cpu := NewCPU(mem, riscv.RV64GC)
	cpu.PC = obj.TextBase
	stop := cpu.Run(10)
	if stop.Kind != StopEcall {
		t.Fatalf("stop = %+v", stop)
	}
	if cpu.X[riscv.A0] != 15 {
		t.Errorf("a0 = %d, want 15", cpu.X[riscv.A0])
	}
	if cpu.PC != obj.TextBase+4 {
		t.Errorf("pc = %#x: compressed lengths not honored", cpu.PC)
	}
}
