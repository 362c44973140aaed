package workload

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// execute runs an image natively on a core of its own ISA and returns the
// exit code (a0 at the exit ecall) and retired instruction count.
func execute(t *testing.T, img *obj.Image, budget uint64) (uint64, uint64) {
	t.Helper()
	mem := emu.NewMemory()
	mem.MapImage(img)
	cpu := emu.NewCPU(mem, img.ISA)
	cpu.Reset(img)
	for {
		stop := cpu.Run(budget)
		switch stop.Kind {
		case emu.StopEcall:
			if cpu.X[riscv.A7] == 93 {
				return cpu.X[riscv.A0], cpu.Instret
			}
			cpu.PC += 4
		default:
			t.Fatalf("%s: stop %+v at pc=%#x (last %v)", img.Name, stop, cpu.PC, cpu.LastInst)
		}
	}
}

func TestFibonacciDeterministic(t *testing.T) {
	base, ext, err := FibPair(3, true)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := execute(t, base, 1_000_000)
	c2, _ := execute(t, ext, 1_000_000)
	if c1 != c2 {
		t.Errorf("base %d vs ext %d", c1, c2)
	}
	// F(90) mod 256: golden value.
	if c1 != 0x78 {
		t.Errorf("fib checksum %#x, want 0x78 (F(90) mod 256)", c1)
	}
}

func TestMatmulVersionsAgree(t *testing.T) {
	base, ext, err := MatmulPair(12, true)
	if err != nil {
		t.Fatal(err)
	}
	cb, ib := execute(t, base, 50_000_000)
	ce, ie := execute(t, ext, 50_000_000)
	if cb != ce {
		t.Fatalf("checksum mismatch: base %d, ext %d", cb, ce)
	}
	if ie >= ib {
		t.Errorf("vector version not faster: %d vs %d retired instructions", ie, ib)
	}
}

func TestMatmulScalarLoopIsUpgradable(t *testing.T) {
	base, err := Matmul(8, false, true)
	if err != nil {
		t.Fatal(err)
	}
	sites := translate.MatchUpgrades(dis.Disassemble(base))
	var dots int
	for _, s := range sites {
		if s.Kind == "dot.e64" {
			dots++
		}
	}
	if dots != 1 {
		t.Errorf("matmul scalar inner loop matched %d times, want 1 (sites: %+v)", dots, sites)
	}
}

func TestBLASKernels(t *testing.T) {
	for _, kind := range BLASKinds {
		base, ext, err := BLASPair(kind, 12, 0, 12)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		cb, ib := execute(t, base, 100_000_000)
		ce, ie := execute(t, ext, 100_000_000)
		if cb != ce {
			t.Errorf("%s: checksum mismatch base=%d ext=%d", kind, cb, ce)
		}
		if ie >= ib {
			t.Errorf("%s: vector version not faster (%d vs %d)", kind, ie, ib)
		}
	}
}

func TestBLASSlicesCompose(t *testing.T) {
	// Two half-slices must each run and produce stable checksums.
	lo, err := BLAS(DGEMV, 8, 0, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := BLAS(DGEMV, 8, 4, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	execute(t, lo, 10_000_000)
	execute(t, hi, 10_000_000)
	if _, err := BLAS(DGEMV, 8, 5, 3, true); err == nil {
		t.Error("invalid slice accepted")
	}
}

func TestSpecVersionsAgree(t *testing.T) {
	p := SpecParams{
		Name: "mini", CodeKB: 1200, Funcs: 6, VecFuncs: 3, BodyInsts: 30,
		IndirectEvery: 3, ErrEntryEvery: 7, Rounds: 10, Seed: 42,
	}
	base, err := BuildSpec(p, false)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := BuildSpec(p, true)
	if err != nil {
		t.Fatal(err)
	}
	// Same structure, both must terminate deterministically; checksums
	// differ (float accumulation order differs between the versions), but
	// each version must be self-consistent across runs.
	c1, _ := execute(t, base, 100_000_000)
	c2, _ := execute(t, base, 100_000_000)
	if c1 != c2 {
		t.Errorf("base version nondeterministic: %d vs %d", c1, c2)
	}
	e1, _ := execute(t, ext, 100_000_000)
	e2, _ := execute(t, ext, 100_000_000)
	if e1 != e2 {
		t.Errorf("ext version nondeterministic: %d vs %d", e1, e2)
	}
	// The code section must really be >1MB (the §6.2 selection criterion).
	if ext.CodeSize() < 1<<20 {
		t.Errorf("code size %d below 1MB", ext.CodeSize())
	}
}

func TestSpecExtensionShare(t *testing.T) {
	for _, c := range []SpecCase{SpecSuite()[0], SpecSuite()[4]} {
		img, err := BuildSpec(c.Params, true)
		if err != nil {
			t.Fatalf("%s: %v", c.Params.Name, err)
		}
		d := dis.Disassemble(img)
		vec := 0
		for _, in := range d.Order {
			if in.Inst.IsVector() {
				vec++
			}
		}
		pct := 100 * float64(vec) / float64(len(d.Order))
		if pct < c.PaperExtPct/3 || pct > c.PaperExtPct*3 {
			t.Errorf("%s: generated ext share %.2f%%, paper %.2f%%", c.Params.Name, pct, c.PaperExtPct)
		}
	}
}

func TestSuitesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation is slow")
	}
	for _, c := range append(SpecSuite()[:3], RealWorldSuite()[:2]...) {
		p := c.Params
		p.Rounds = 2
		if _, err := BuildSpec(p, true); err != nil {
			t.Errorf("%s (ext): %v", p.Name, err)
		}
		if _, err := BuildSpec(p, false); err != nil {
			t.Errorf("%s (base): %v", p.Name, err)
		}
	}
}
