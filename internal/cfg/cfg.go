// Package cfg recovers basic blocks and a control-flow graph from a
// disassembly. The graph is deliberately conservative about indirect
// control flow: a block ending in an unresolved jalr has HasIndirect set
// and no static successors, which downstream analyses (liveness, exit
// register selection) must treat as "anything may be live" (§4.2).
//
// The graph is indexed by position in dis.Result.Order, with no address
// maps: blocks are a slice in address order, each naming its run of Order
// positions, and successor edges are block indices.
package cfg

import (
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Block is a maximal straight-line run of instructions.
type Block struct {
	Start uint64
	// First and Last are the positions in Dis.Order of the block's first
	// and last instruction: the block is Dis.Order[First : Last+1].
	First, Last int
	// Succs are the statically-known successors, as indices in Graph.Blocks.
	Succs []int
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
	// targets of the block's indirect terminator (BuildResolved). Their
	// blocks join Succs, completing the edge set; HasIndirect stays true so
	// liveness remains conservative about the site.
	ResolvedTargets []uint64
}

// End returns the address one past the final instruction.
func (b *Block) End(d *dis.Result) uint64 { return d.Order[b.Last].End() }

// Graph is the control-flow graph of an image.
type Graph struct {
	// Blocks lists the blocks in ascending address order.
	Blocks []Block
	Dis    *dis.Result
	// blockOf holds, per position in Dis.Order, the index of the block
	// holding that instruction.
	blockOf []int32
}

// BlockAt returns the index of the block holding Dis.Order[i].
func (g *Graph) BlockAt(i int) int { return int(g.blockOf[i]) }

// BlockOf returns the index of the block holding the instruction at addr.
func (g *Graph) BlockOf(addr uint64) (int, bool) {
	i, ok := g.Dis.Index(addr)
	if !ok {
		return 0, false
	}
	return int(g.blockOf[i]), true
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
		case in.Op == riscv.JAL, in.IsBranch():
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
	// fallsIntoLeader reports whether the instruction at position i runs
	// straight into a recognized leader.
	fallsIntoLeader := func(i int) bool {
		j, ok := d.Index(d.Order[i].End())
		return ok && leader[j]
	}

	g := &Graph{Dis: d, blockOf: make([]int32, len(d.Order))}

	// Cut blocks: a control transfer, or a fallthrough into a leader, ends
	// a block; a leader or a gap in recognized addresses starts one.
	ended := true
	for i, x := range d.Order {
		if ended || leader[i] || d.Order[i-1].End() != x.Addr {
			g.Blocks = append(g.Blocks, Block{Start: x.Addr, First: i})
		}
		b := len(g.Blocks) - 1
		g.Blocks[b].Last = i
		g.blockOf[i] = int32(b)
		switch in := x.Inst; {
		case in.Op == riscv.JAL, in.Op == riscv.JALR, in.IsBranch():
			ended = true
		default:
			ended = fallsIntoLeader(i)
		}
	}

	// Edges from each block's terminator, kept only where they land in
	// recognized code (on the block holding the target). All blocks' edges
	// share one backing array.
	edges := make([]int, 0, 2*len(g.Blocks))
	edge := func(target uint64) {
		if j, ok := d.Index(target); ok {
			edges = append(edges, int(g.blockOf[j]))
		}
	}
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		lo := len(edges)
		addr, in := d.Order[b.Last].Addr, d.Order[b.Last].Inst
		switch {
		case in.Op == riscv.JAL:
			if in.Rd == riscv.RA {
				b.IsCallSite = true
				edge(addr + uint64(in.Len))
			} else {
				edge(addr + uint64(in.Imm))
			}
		case in.Op == riscv.JALR:
			if in.Rd == riscv.RA {
				b.IsCallSite = true
				edge(addr + uint64(in.Len))
			} else if in.Rd == riscv.Zero && in.Rs1 == riscv.RA && in.Imm == 0 {
				b.IsRet = true
			}
			b.HasIndirect = true
		case in.IsBranch():
			edge(addr + uint64(in.Imm))
			edge(addr + uint64(in.Len))
		default:
			if fallsIntoLeader(b.Last) {
				edge(addr + uint64(in.Len))
			}
		}
		b.Succs = edges[lo:len(edges):len(edges)]
	}
	return g
}

// BuildResolved constructs the CFG and completes indirect successor
// edges from a resolver TargetSet: for every block whose terminator is
// an exhaustive High-confidence site, the recovered targets become real
// successor edges (deduplicated, landing on the block holding each target
// like every other edge). The disassembly should be the TargetSet's
// completed one (resolve.TargetSet.Dis) so the targets exist as blocks.
func BuildResolved(d *dis.Result, ts *resolve.TargetSet) *Graph {
	g := Build(d)
	if ts == nil {
		return g
	}
	// succOf[j] == bi+1 marks block j as already a successor of block bi.
	var succOf []int32
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		if !b.HasIndirect {
			continue
		}
		site := ts.Site(d.Order[b.Last].Addr)
		if site == nil || !site.Exhaustive {
			continue
		}
		if succOf == nil {
			succOf = make([]int32, len(g.Blocks))
		}
		mark := int32(bi + 1)
		for _, s := range b.Succs {
			succOf[s] = mark
		}
		for _, tgt := range site.HighTargets() {
			j, ok := g.BlockOf(tgt)
			if !ok {
				continue
			}
			b.ResolvedTargets = append(b.ResolvedTargets, tgt)
			if succOf[j] != mark {
				succOf[j] = mark
				b.Succs = append(b.Succs, j)
			}
		}
	}
	return g
}
