package cfg

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func buildGraph(t *testing.T) (*Graph, map[string]uint64) {
	t.Helper()
	b := asm.NewBuilder(riscv.RV64GC)
	b.Func("main")
	b.Li(riscv.A0, 5)
	b.Label("loop")
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, -1)
	b.Bne(riscv.A0, riscv.Zero, "loop")
	b.Call("leaf")
	b.Ecall()
	b.Func("leaf")
	b.Ret()
	img, err := b.Build("t", "main")
	if err != nil {
		t.Fatal(err)
	}
	g := Build(dis.Disassemble(img))
	labels := map[string]uint64{}
	for _, name := range []string{"main", "leaf"} {
		s, ok := img.Lookup(name)
		if !ok {
			t.Fatal(name)
		}
		labels[name] = s.Addr
	}
	return g, labels
}

func TestBasicBlocks(t *testing.T) {
	g, labels := buildGraph(t)
	if len(g.Blocks) < 4 {
		t.Fatalf("blocks = %d, want >= 4", len(g.Blocks))
	}
	// Blocks are in address order and tile Dis.Order.
	next := 0
	for i, b := range g.Blocks {
		if b.First != next || b.Last < b.First || g.Dis.Order[b.First].Addr != b.Start {
			t.Fatalf("block %d = %+v, want it to start at position %d", i, b, next)
		}
		next = b.Last + 1
	}
	if next != len(g.Dis.Order) {
		t.Fatalf("blocks cover %d of %d instructions", next, len(g.Dis.Order))
	}
	// The loop block must have itself as a successor.
	var loopBlock *Block
	for i := range g.Blocks {
		for _, s := range g.Blocks[i].Succs {
			if s == i {
				loopBlock = &g.Blocks[i]
			}
		}
	}
	if loopBlock == nil {
		t.Fatal("no self-loop block found")
	}
	// leaf ends in ret: indirect, no successors.
	li, ok := g.BlockOf(labels["leaf"])
	if !ok || g.Blocks[li].Start != labels["leaf"] {
		t.Fatal("leaf is not a block leader")
	}
	leaf := g.Blocks[li]
	if !leaf.HasIndirect || len(leaf.Succs) != 0 {
		t.Errorf("leaf block: indirect=%v succs=%v", leaf.HasIndirect, leaf.Succs)
	}
}

func TestCallSiteBlocks(t *testing.T) {
	g, _ := buildGraph(t)
	var callBlock *Block
	for i := range g.Blocks {
		if g.Blocks[i].IsCallSite {
			callBlock = &g.Blocks[i]
		}
	}
	if callBlock == nil {
		t.Fatal("no call-site block")
	}
	// Call fallthrough models the return.
	if len(callBlock.Succs) != 1 {
		t.Errorf("call block succs = %v", callBlock.Succs)
	}
}

func TestBlockOfAndPreds(t *testing.T) {
	g, labels := buildGraph(t)
	for pos, in := range g.Dis.Order {
		b, ok := g.BlockOf(in.Addr)
		if !ok {
			t.Fatalf("BlockOf[%#x] missing for a recognized instruction", in.Addr)
		}
		if blk := g.Blocks[b]; pos < blk.First || pos > blk.Last || g.BlockAt(pos) != b {
			t.Fatalf("BlockOf[%#x] = block %d %+v, which does not hold position %d", in.Addr, b, blk, pos)
		}
	}
	// The loop head has two predecessors: entry fallthrough and itself.
	preds := make([]int, len(g.Blocks))
	loop := -1
	for i, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s]++
			if s == i {
				loop = i
			}
		}
	}
	if loop < 0 || preds[loop] != 2 {
		t.Errorf("loop head %d preds = %v, want 2", loop, preds)
	}
	if _, ok := g.BlockOf(labels["main"]); !ok {
		t.Error("BlockOf(main) failed")
	}
	if _, ok := g.BlockOf(0xdead); ok {
		t.Error("BlockOf of junk succeeded")
	}
}

func TestBlockEnd(t *testing.T) {
	g, labels := buildGraph(t)
	li, _ := g.BlockOf(labels["leaf"])
	end := g.Blocks[li].End(g.Dis)
	if end != labels["leaf"]+4 { // single ret
		t.Errorf("leaf end = %#x, want %#x", end, labels["leaf"]+4)
	}
}
