package dis

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func buildLoop(t *testing.T, compress bool) (*Result, uint64) {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GC)
	b.Compress = compress
	b.Func("main")
	b.Li(riscv.A0, 10)
	b.Li(riscv.A1, 0)
	b.Label("loop")
	b.Op(riscv.ADD, riscv.A1, riscv.A1, riscv.A0)
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, -1)
	b.Bne(riscv.A0, riscv.Zero, "loop")
	b.Call("leaf")
	b.Ecall()
	b.Func("leaf")
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, 1)
	b.Ret()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	return Disassemble(img), img.Entry
}

func TestDisassembleCoversReachableCode(t *testing.T) {
	for _, compress := range []bool{false, true} {
		res, entry := buildLoop(t, compress)
		if _, ok := res.At(entry); !ok {
			t.Fatal("entry not recognized")
		}
		if len(res.Order) < 8 {
			t.Errorf("compress=%v: recognized only %d instructions", compress, len(res.Order))
		}
		// Two indirect transfers: the auipc/jalr call pair and leaf's ret.
		if len(res.IndirectJumps) != 2 {
			t.Errorf("compress=%v: indirect jumps = %v", compress, res.IndirectJumps)
		}
		if len(res.Calls) != 1 {
			t.Errorf("compress=%v: calls = %v", compress, res.Calls)
		}
		// Addresses must be strictly increasing with no overlaps.
		for i := 1; i < len(res.Order); i++ {
			prev := res.Order[i-1]
			if prev.End() > res.Order[i].Addr {
				t.Fatalf("overlapping instructions at %#x/%#x", prev.Addr, res.Order[i].Addr)
			}
		}
	}
}

func TestDisassembleStopsAtIndirectTargets(t *testing.T) {
	// Code reachable only through a register-indirect jump must stay
	// unrecognized — the incompleteness the paper's runtime handles (§4.1).
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.La(riscv.T0, "hidden")
	b.Jr(riscv.T0)
	b.Label("hidden")
	b.Li(riscv.A0, 99)
	b.Ecall()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := Disassemble(img)
	hidden, _ := img.Lookup("hidden")
	_ = hidden
	// "hidden" is a label, not a function symbol, so it is not a root.
	var sawEcall bool
	for _, in := range res.Order {
		if in.Inst.Op == riscv.ECALL {
			sawEcall = true
		}
	}
	if sawEcall {
		t.Error("code behind an indirect jump was recognized; recursion should not reach it")
	}
	if res.Coverage(img) >= 1.0 {
		t.Error("coverage should be incomplete")
	}
}

func TestDisassembleRecordsUndecodable(t *testing.T) {
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Nop()
	b.Raw(0x0000001F) // reserved wide prefix on the straight-line path
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	res := Disassemble(img)
	if len(res.Undecodable) != 1 {
		t.Errorf("undecodable = %v", res.Undecodable)
	}
}

func TestNext(t *testing.T) {
	res, entry := buildLoop(t, false)
	next, ok := res.Next(entry)
	if !ok {
		t.Fatalf("Next(entry) not recognized")
	}
	if next != entry+4 {
		t.Errorf("next = %#x, want %#x", next, entry+4)
	}
	if _, ok := res.Next(0xdead); ok {
		t.Error("Next of unknown address succeeded")
	}
}
