// Package cfg recovers basic blocks and a control-flow graph from a
// disassembly. The graph is deliberately conservative about indirect
// control flow: a block ending in an unresolved jalr has HasIndirect set
// and no static successors, which downstream analyses (liveness, exit
// register selection) must treat as "anything may be live" (§4.2).
package cfg

import (
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Block is a maximal straight-line run of instructions.
type Block struct {
	Start uint64
	// Addrs lists the instruction addresses in order.
	Addrs []uint64
	// Succs are the statically-known successor block start addresses.
	Succs []uint64
	// HasIndirect marks a block whose terminator is an unresolved indirect
	// jump (jalr): its successor set is incomplete.
	HasIndirect bool
	// IsCallSite marks a block ending in a call (jal/jalr rd=ra); the
	// fallthrough successor models the return.
	IsCallSite bool
	// IsRet marks a block ending in the canonical return (jalr x0, 0(ra)).
	// Liveness treats returns with ABI knowledge instead of all-live.
	IsRet bool
	// ResolvedTargets lists the statically recovered High-confidence
	// targets of the block's indirect terminator (BuildResolved). They
	// are also appended to Succs, completing the edge set; HasIndirect
	// stays true so liveness remains conservative about the site.
	ResolvedTargets []uint64
}

// End returns the address one past the final instruction.
func (b *Block) End(d *dis.Result) uint64 {
	last := b.Addrs[len(b.Addrs)-1]
	in, _ := d.At(last)
	return last + uint64(in.Len)
}

// Graph is the control-flow graph of an image.
type Graph struct {
	Blocks map[uint64]*Block // keyed by start address
	// Order lists block starts ascending (blocks are cut in address order).
	Order []uint64
	Dis   *dis.Result
	// blockOf holds, per position in Dis.Order, the start of the block
	// holding that instruction.
	blockOf []uint64
}

// BlockOf returns the start of the block holding the instruction at addr.
func (g *Graph) BlockOf(addr uint64) (uint64, bool) {
	i, ok := g.Dis.Index(addr)
	if !ok {
		return 0, false
	}
	return g.blockOf[i], true
}

// Build constructs the CFG from a disassembly.
func Build(d *dis.Result) *Graph {
	// leader is indexed by position in d.Order; a leader address outside
	// recognized code cannot start a block, so only positions matter.
	leader := make([]bool, len(d.Order))
	mark := func(a uint64) {
		if i, ok := d.Index(a); ok {
			leader[i] = true
		}
	}
	for _, x := range d.Order {
		addr, in := x.Addr, x.Inst
		switch {
		case in.Op == riscv.JAL:
			mark(addr + uint64(in.Imm))
			mark(addr + uint64(in.Len))
		case in.IsBranch():
			mark(addr + uint64(in.Imm))
			mark(addr + uint64(in.Len))
		case in.Op == riscv.JALR:
			mark(addr + uint64(in.Len))
		}
	}
	if len(d.Order) > 0 {
		leader[0] = true
	}
	for _, root := range d.Roots {
		mark(root)
	}

	g := &Graph{
		Blocks:  make(map[uint64]*Block),
		Dis:     d,
		blockOf: make([]uint64, len(d.Order)),
	}

	var cur *Block
	for i, x := range d.Order {
		addr, in := x.Addr, x.Inst
		// A gap in recognized addresses also starts a new block.
		gap := i > 0 && d.Order[i-1].End() != addr
		if cur == nil || leader[i] || gap {
			cur = &Block{Start: addr}
			g.Blocks[addr] = cur
			g.Order = append(g.Order, addr)
		}
		cur.Addrs = append(cur.Addrs, addr)
		g.blockOf[i] = cur.Start

		endsBlock := false
		switch {
		case in.Op == riscv.JAL:
			if in.Rd == riscv.RA {
				cur.IsCallSite = true
				cur.Succs = append(cur.Succs, addr+uint64(in.Len))
			} else {
				cur.Succs = append(cur.Succs, addr+uint64(in.Imm))
			}
			endsBlock = true
		case in.Op == riscv.JALR:
			if in.Rd == riscv.RA {
				cur.IsCallSite = true
				cur.Succs = append(cur.Succs, addr+uint64(in.Len))
			} else if in.Rd == riscv.Zero && in.Rs1 == riscv.RA && in.Imm == 0 {
				cur.IsRet = true
			}
			cur.HasIndirect = true
			endsBlock = true
		case in.IsBranch():
			cur.Succs = append(cur.Succs, addr+uint64(in.Imm), addr+uint64(in.Len))
			endsBlock = true
		default:
			// Fallthrough into a leader ends the block with one successor.
			next := addr + uint64(in.Len)
			if j, ok := d.Index(next); ok && leader[j] {
				cur.Succs = append(cur.Succs, next)
				endsBlock = true
			}
		}
		if endsBlock {
			cur = nil
		}
	}

	// Prune successors that point outside recognized code.
	for _, b := range g.Blocks {
		kept := b.Succs[:0]
		for _, s := range b.Succs {
			if _, ok := g.Blocks[s]; ok {
				kept = append(kept, s)
			} else if start, ok := g.BlockOf(s); ok {
				kept = append(kept, start)
			}
		}
		b.Succs = kept
	}
	return g
}

// BuildResolved constructs the CFG and completes indirect successor
// edges from a resolver TargetSet: for every block whose terminator is
// an exhaustive High-confidence site, the recovered targets become real
// successor edges (deduplicated, remapped to block leaders like every
// other edge). The disassembly should be the TargetSet's completed one
// (resolve.TargetSet.Dis) so the targets exist as blocks.
func BuildResolved(d *dis.Result, ts *resolve.TargetSet) *Graph {
	g := Build(d)
	if ts == nil {
		return g
	}
	for _, b := range g.Blocks {
		if !b.HasIndirect || len(b.Addrs) == 0 {
			continue
		}
		site := ts.Site(b.Addrs[len(b.Addrs)-1])
		if site == nil || !site.Exhaustive {
			continue
		}
		have := make(map[uint64]bool, len(b.Succs))
		for _, s := range b.Succs {
			have[s] = true
		}
		for _, tgt := range site.HighTargets() {
			start, ok := g.BlockOf(tgt)
			if !ok {
				continue
			}
			b.ResolvedTargets = append(b.ResolvedTargets, tgt)
			if !have[start] {
				have[start] = true
				b.Succs = append(b.Succs, start)
			}
		}
	}
	return g
}

// BlockContaining returns the block holding the instruction at addr.
func (g *Graph) BlockContaining(addr uint64) (*Block, bool) {
	start, ok := g.BlockOf(addr)
	if !ok {
		return nil, false
	}
	return g.Blocks[start], true
}

// Preds computes the predecessor map (lazy, for analyses that need it).
func (g *Graph) Preds() map[uint64][]uint64 {
	preds := make(map[uint64][]uint64, len(g.Blocks))
	for start, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], start)
		}
	}
	return preds
}
