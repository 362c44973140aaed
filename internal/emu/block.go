package emu

// Basic-block translation engine — tier one of the two-tier translator
// (trace.go is tier two).
//
// The per-instruction Step loop pays a decoded-icache probe, an ISA
// extension check and full operand re-extraction for every retired
// instruction. The block engine decodes a straight-line run once into a
// predecoded µop vector (ending at a control transfer, the page boundary,
// or maxBlockInsts), hoists the extension check to build time — a block
// only ever contains instructions its core's ISA implements — and
// dispatches the whole block from a 2-way set-associative cache keyed on
// (pc, address space, mapping generation, spanned-frame patch generations,
// core ISA, cost model). Block exits chain to their successor blocks, so a
// steady-state hot loop runs block-to-block without touching the cache
// index; indirect jumps chain through a small polymorphic inline cache
// (picWays entries, MRU-ordered) instead of a single-entry slot, so
// call-heavy code with rotating jalr/ret targets keeps chaining.
//
// Blocks and traces are recycled through per-CPU free lists: eviction and
// invalidation return the object (and its µop backing array) to the pool,
// so steady-state rebuild churn allocates nothing. Reuse is safe because
// every block pointer read from a chain link, PIC entry or cache way is
// re-validated with blockValid against the actual dispatch pc before it
// executes.
//
// The engine is required to be architecturally indistinguishable from
// stepping: identical X/F/V/PC/Instret/Cycles trajectories, identical
// precise faults mid-block, and the runtime-rewriting contract intact —
// Poke bumps the patch generation of every frame it touches (invalidating
// translations of every address space sharing those frames), and
// Map/MapPage/ShareFrom bump the per-address-space mapping generation.

import (
	"encoding/binary"

	"github.com/eurosys26p57/chimera/internal/riscv"
)

const (
	// blockCacheSize is the number of block cache sets; each set holds
	// blockCacheWays entries in MRU order.
	blockCacheSize = 1024
	blockCacheWays = 2
	// maxBlockInsts bounds a block's µop count.
	maxBlockInsts = 64
	// picWays is the size of the per-block polymorphic inline cache for
	// indirect-jump successors (MRU-ordered).
	picWays = 4
)

// Observer-mask bits (CPU.obs, block.obs, trace.obs) and per-µop hook
// flags. Cmp and Mem observer participation is burned into µops at build
// time so a nil observer set compiles to the exact µop stream an
// uninstrumented CPU builds. hookProf is a mask bit only (never a µop
// flag): blocks built before the profiler was installed rebuild to take a
// counter slot. Coverage needs neither a mask bit nor µop changes.
const (
	hookCmp  uint8 = 1 << iota // log branch operands to Hooks.Cmp
	hookMem                    // log integer load/store accesses to Hooks.Mem
	hookProf                   // block carries a Hooks.Prof counter slot
)

// covIDOf hashes a block start pc into its stable coverage ID. Edge indices
// are covID⊕prev (instrument.Coverage), so the ID itself just needs good
// avalanche over nearby pcs.
func covIDOf(pc uint64) uint32 {
	return uint32((pc * 0x9E3779B97F4A7C15) >> 32)
}

// BlockStats counts translation events for both tiers, cumulative over the
// CPU's lifetime. They are the emulator-side observables the service
// exposes on /stats and chimera-run prints with -stats.
type BlockStats struct {
	Built         uint64 `json:"built"`         // blocks decoded and cached
	Hits          uint64 `json:"hits"`          // dispatches served from cache (incl. chained)
	Invalidations uint64 `json:"invalidations"` // cached blocks/traces dropped as stale
	Dispatches    uint64 `json:"dispatches"`    // block + trace executions
	Retired       uint64 `json:"retired"`       // instructions retired via block/trace dispatch

	TracesBuilt  uint64 `json:"traces_built"`  // superblock traces stitched
	TraceHits    uint64 `json:"trace_hits"`    // dispatches served by a trace
	TraceRetired uint64 `json:"trace_retired"` // instructions retired inside traces
	SideExits    uint64 `json:"side_exits"`    // trace guard failures (fell back to block tier)
	PICHits      uint64 `json:"pic_hits"`      // indirect-jump chains served by the inline cache
	PICMisses    uint64 `json:"pic_misses"`    // indirect-jump chains that probed the block cache
}

// HitRatio is the fraction of block lookups served from the cache
// (chained successors count as hits).
func (s BlockStats) HitRatio() float64 {
	total := s.Hits + s.Built
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// RetiredPerDispatch is the average number of instructions retired per
// dispatch — the engine's amortization factor over stepping.
func (s BlockStats) RetiredPerDispatch() float64 {
	if s.Dispatches == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Dispatches)
}

// SideExitRate is the fraction of trace dispatches that left through a
// failed guard rather than the trace's planned exit.
func (s BlockStats) SideExitRate() float64 {
	if s.TraceHits == 0 {
		return 0
	}
	return float64(s.SideExits) / float64(s.TraceHits)
}

// PICHitRatio is the fraction of indirect-jump chain lookups served by the
// polymorphic inline cache.
func (s BlockStats) PICHitRatio() float64 {
	total := s.PICHits + s.PICMisses
	if total == 0 {
		return 0
	}
	return float64(s.PICHits) / float64(total)
}

// Add accumulates o into s (for service-level aggregation across runs).
func (s *BlockStats) Add(o BlockStats) {
	s.Built += o.Built
	s.Hits += o.Hits
	s.Invalidations += o.Invalidations
	s.Dispatches += o.Dispatches
	s.Retired += o.Retired
	s.TracesBuilt += o.TracesBuilt
	s.TraceHits += o.TraceHits
	s.TraceRetired += o.TraceRetired
	s.SideExits += o.SideExits
	s.PICHits += o.PICHits
	s.PICMisses += o.PICMisses
}

// Trace-tier continuation expectations burned into µops at stitch time.
// expNone µops behave exactly as in the block tier; the others are guards
// that keep execution inside a trace when the prediction holds and side-exit
// with precise state when it does not.
const (
	expNone     uint8 = iota // block-tier semantics (also every trace-terminal µop)
	expTaken                 // conditional branch predicted taken; next µop is the target
	expNotTaken              // conditional branch predicted not taken; next µop is the fallthrough
	expFold                  // JAL folded into the trace; next µop is the target
	expJalr                  // indirect jump predicted to hit uop.target; guarded at runtime
)

// uop is one predecoded instruction: operands extracted, static targets and
// cycle costs resolved at build time so dispatch touches no decoder state.
type uop struct {
	op           riscv.Op
	rd, rs1, rs2 riscv.Reg
	rs3          riscv.Reg
	expect       uint8
	hook         uint8 // observer participation (hookCmp/hookMem), build-time
	imm          int64
	pc           uint64 // this instruction's address
	next         uint64 // pc + length
	target       uint64 // branch/JAL target; LUI/AUIPC result; expJalr predicted target
	costN, costT uint64 // cycle charge not-taken / taken
	inst         riscv.Inst
}

// block is one translated basic block plus its exit chain and trace-tier
// bookkeeping.
type block struct {
	pc     uint64
	mapGen uint64
	mem    *Memory
	isa    riscv.Ext
	cost   *CostModel
	obs    uint8  // observer mask the µops were built under
	covID  uint32 // stable coverage ID (covIDOf(pc)), computed at build
	prof   int32  // Hooks.Prof counter slot, assigned at build under hookProf
	uops   []uop

	// Frame validity: the code frames the block's bytes live in, with their
	// patch generations at build time. A block spans at most two frames (the
	// builder stops at page boundaries; only the final instruction may
	// straddle into the next page).
	pg0, pg1     *Page
	pgen0, pgen1 uint64

	// Exit chaining: successors patched in by runBlocks on first use.
	// succFall is the fallthrough / branch-not-taken successor, succTake
	// the taken-branch / JAL successor. Indirect jumps chain through the
	// polymorphic inline cache picPC/picB, kept in MRU order (way 0 is the
	// most recent and is what the trace builder predicts).
	succFall *block
	succTake *block
	picPC    [picWays]uint64
	picB     [picWays]*block

	// Trace-tier state: heat counts dispatches toward promotion; trace is
	// the compiled superblock once promoted; noTrace pins blocks whose
	// chains cannot be usefully stitched so they stop paying the heat check.
	heat    uint32
	noTrace bool
	trace   *trace
}

// picGet returns the inline-cache successor for target pc, rotating a hit
// to MRU position. Validity is the caller's job (blockValid against pc).
func (b *block) picGet(pc uint64) *block {
	if pc == 0 {
		return nil
	}
	for w := 0; w < picWays; w++ {
		if b.picPC[w] == pc {
			s := b.picB[w]
			for ; w > 0; w-- {
				b.picPC[w], b.picB[w] = b.picPC[w-1], b.picB[w-1]
			}
			b.picPC[0], b.picB[0] = pc, s
			return s
		}
	}
	return nil
}

// picPut installs succ as the MRU successor for target pc, evicting the LRU
// way.
func (b *block) picPut(pc uint64, succ *block) {
	w := picWays - 1
	for i := 0; i < picWays; i++ {
		if b.picPC[i] == pc {
			w = i
			break
		}
	}
	for ; w > 0; w-- {
		b.picPC[w], b.picB[w] = b.picPC[w-1], b.picB[w-1]
	}
	b.picPC[0], b.picB[0] = pc, succ
}

// Exit codes from execUops, used to pick the chain slot to follow/patch.
const (
	exitNone = iota
	exitFall // fell through the block end / branch not taken
	exitTake // taken branch or JAL
	exitJalr // indirect jump
	exitPart // budget exhausted mid-block, or halted
	exitSide // trace guard failed; architectural state is at the actual successor
)

// blockValid reports whether b may run at pc on the CPU's current address
// space, mapping generation, code-frame patch generations, ISA and cost
// model. Note Pokes outside the block's own frames do not invalidate it,
// and Pokes through *another* address space sharing a frame do.
func (c *CPU) blockValid(b *block, pc uint64) bool {
	return b.pc == pc && b.mem == c.Mem && b.mapGen == c.Mem.mapGen &&
		b.isa == c.ISA && b.cost == c.Cost && b.obs == c.obs &&
		b.pg0 != nil && b.pg0.gen == b.pgen0 &&
		(b.pg1 == nil || b.pg1.gen == b.pgen1)
}

// newBlock pops a recycled block from the free list (reusing its µop
// backing array) or allocates a fresh one.
func (c *CPU) newBlock() *block {
	if n := len(c.freeBlocks); n > 0 {
		b := c.freeBlocks[n-1]
		c.freeBlocks = c.freeBlocks[:n-1]
		return b
	}
	return &block{}
}

// recycleBlock returns an evicted/invalidated block (and its trace, if any)
// to the free lists. All identity fields are cleared so any dangling chain
// or PIC pointer to it fails blockValid until it is legitimately reused.
func (c *CPU) recycleBlock(b *block) {
	if b == nil {
		return
	}
	if b.trace != nil {
		c.recycleTrace(b)
	}
	*b = block{uops: b.uops[:0]}
	c.freeBlocks = append(c.freeBlocks, b)
}

// blockFor returns the cached block at pc, building and caching it on a
// miss. It returns nil when even the first instruction cannot become part
// of a block (fetch fault, undecodable encoding, unsupported extension);
// the caller steps once so the precise fault is raised exactly as the
// interpreter would.
func (c *CPU) blockFor(pc uint64) *block {
	set := ((pc >> 1) & (blockCacheSize - 1)) * blockCacheWays
	w0, w1 := c.bcache[set], c.bcache[set+1]
	if w0 != nil && c.blockValid(w0, pc) {
		c.Blocks.Hits++
		return w0
	}
	if w1 != nil && c.blockValid(w1, pc) {
		// MRU promotion: swap into way 0.
		c.bcache[set], c.bcache[set+1] = w1, w0
		c.Blocks.Hits++
		return w1
	}
	if (w0 != nil && w0.pc == pc) || (w1 != nil && w1.pc == pc) {
		c.Blocks.Invalidations++
	}
	b := c.buildBlock(pc)
	if b == nil {
		return nil
	}
	c.Blocks.Built++
	// Insert at MRU. Prefer evicting a stale way; otherwise the LRU way.
	if w0 == nil || !c.blockValid(w0, w0.pc) {
		c.recycleBlock(w0)
		c.bcache[set] = b
		return b
	}
	c.recycleBlock(w1)
	c.bcache[set], c.bcache[set+1] = b, w0
	return b
}

// decodeOne fetches and decodes the instruction at pc for the block
// builder. Failures are not classified — the stepping path re-derives the
// precise fault when the block engine cannot make progress.
func (c *CPU) decodeOne(pc uint64) (riscv.Inst, bool) {
	parcel, ok := c.Mem.fetchU16(pc)
	if !ok {
		var b [2]byte
		if _, ok := c.Mem.Fetch(pc, b[:]); !ok {
			return riscv.Inst{}, false
		}
		parcel = binary.LittleEndian.Uint16(b[:])
	}
	ilen, err := riscv.ParcelLen(parcel)
	if err != nil {
		return riscv.Inst{}, false
	}
	if ilen == 2 {
		if !c.ISA.Has(riscv.ExtC) {
			return riscv.Inst{}, false
		}
		inst, err := riscv.DecodeCompressed(parcel)
		if err != nil {
			return riscv.Inst{}, false
		}
		return inst, true
	}
	hi, ok := c.Mem.fetchU16(pc + 2)
	if !ok {
		var b [2]byte
		if _, ok := c.Mem.Fetch(pc+2, b[:]); !ok {
			return riscv.Inst{}, false
		}
		hi = binary.LittleEndian.Uint16(b[:])
	}
	inst, err := riscv.Decode32(uint32(parcel) | uint32(hi)<<16)
	if err != nil {
		return riscv.Inst{}, false
	}
	return inst, true
}

// makeUop predecodes one instruction at pc: operands, static jump/branch
// targets, LUI/AUIPC results, both cycle charges, and the observer hook
// flags the µop participates in under the obs mask. With obs == 0 the
// result is bit-identical to an uninstrumented build.
func makeUop(inst riscv.Inst, pc uint64, cost *CostModel, obs uint8) uop {
	n, t := cost.Costs(inst)
	u := uop{
		op: inst.Op, rd: inst.Rd, rs1: inst.Rs1, rs2: inst.Rs2, rs3: inst.Rs3,
		imm: inst.Imm, pc: pc, next: pc + uint64(inst.Len),
		costN: n, costT: t,
		inst: inst,
	}
	switch inst.Op {
	case riscv.JAL:
		u.target = pc + uint64(inst.Imm)
	case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
		u.target = pc + uint64(inst.Imm)
		u.hook = obs & hookCmp
	case riscv.LUI:
		u.target = uint64(inst.Imm << 12)
	case riscv.AUIPC:
		u.target = pc + uint64(inst.Imm<<12)
	case riscv.LB, riscv.LH, riscv.LW, riscv.LD,
		riscv.LBU, riscv.LHU, riscv.LWU,
		riscv.SB, riscv.SH, riscv.SW, riscv.SD:
		u.hook = obs & hookMem
	}
	return u
}

// buildBlock decodes the straight-line run starting at pc. The block ends
// at a control transfer, the first instruction outside the core's ISA
// (hoisting the per-instruction extension check to build time), a page
// boundary, or maxBlockInsts.
func (c *CPU) buildBlock(start uint64) *block {
	b := c.newBlock()
	b.pc, b.mapGen, b.mem, b.isa, b.cost = start, c.Mem.mapGen, c.Mem, c.ISA, c.Cost
	b.obs, b.covID = c.obs, covIDOf(start)
	pc := start
	for len(b.uops) < maxBlockInsts {
		inst, ok := c.decodeOne(pc)
		if !ok || !c.ISA.Has(inst.Extension()) {
			break
		}
		b.uops = append(b.uops, makeUop(inst, pc, c.Cost, c.obs))
		pc += uint64(inst.Len)
		if inst.IsControl() {
			break
		}
		if pageOf(pc) != pageOf(start) {
			break
		}
	}
	if len(b.uops) == 0 {
		c.recycleBlock(b)
		return nil
	}
	pg0, ok := c.Mem.Page(start)
	if !ok {
		c.recycleBlock(b)
		return nil
	}
	b.pg0, b.pgen0 = pg0, pg0.gen
	if end := b.uops[len(b.uops)-1].next - 1; pageOf(end) != pageOf(start) {
		if pg1, ok := c.Mem.Page(end); ok {
			b.pg1, b.pgen1 = pg1, pg1.gen
		}
	}
	if h := c.Hooks; h != nil && h.Prof != nil {
		b.prof = h.Prof.Slot(start)
	}
	return b
}

// runBlocks is Run's dispatch loop for both translation tiers: look up (or
// chain to) the block at PC, run its trace if one is compiled and valid
// (building one when the block crosses the promotion threshold), otherwise
// execute the block, then follow the exit.
func (c *CPU) runBlocks(limit uint64) Stop {
	remaining := limit
	var prev *block
	prevExit := exitNone
	for remaining > 0 {
		pc := c.PC
		var blk *block
		if prev != nil {
			var cand *block
			switch prevExit {
			case exitFall:
				cand = prev.succFall
			case exitTake:
				cand = prev.succTake
			case exitJalr:
				if cand = prev.picGet(pc); cand != nil && c.blockValid(cand, pc) {
					c.Blocks.PICHits++
				} else {
					cand = nil
					c.Blocks.PICMisses++
				}
			}
			if cand != nil && c.blockValid(cand, pc) {
				blk = cand
				c.Blocks.Hits++
			}
		}
		if blk == nil {
			blk = c.blockFor(pc)
			if blk == nil {
				// No block can start here: step once so the interpreter
				// raises the precise fault (or executes the odd straggler).
				stop, halted := c.Step()
				if halted {
					return stop
				}
				remaining--
				prev, prevExit = nil, exitNone
				continue
			}
			if prev != nil {
				switch prevExit {
				case exitFall:
					prev.succFall = blk
				case exitTake:
					prev.succTake = blk
				case exitJalr:
					prev.picPut(pc, blk)
				}
			}
		}
		if c.TraceThreshold != 0 {
			if t := blk.trace; t != nil {
				if c.traceValid(t) {
					before := c.Instret
					cyclesBefore := c.Cycles
					stop, halted, exit := c.execUops(t.uops, remaining)
					retired := c.Instret - before
					c.Blocks.Dispatches++
					c.Blocks.TraceHits++
					c.Blocks.Retired += retired
					c.Blocks.TraceRetired += retired
					remaining -= retired
					if h := c.Hooks; h != nil {
						if h.Cov != nil {
							// An edge per stitched block the trace entered,
							// in stitch order, as block-tier dispatch would
							// record: block k was entered iff its start
							// index is below the retired count, or equal to
							// it when the run halted (the halting µop
							// started without retiring).
							limit := retired
							if halted {
								limit++
							}
							h.Cov.Edge(t.covIDs[0])
							for k := 1; k < len(t.covIDs); k++ {
								if uint64(t.covStarts[k]) < limit {
									h.Cov.Edge(t.covIDs[k])
								}
							}
						}
						// One profile sample, keyed by the head block.
						if h.Prof != nil && !h.Prof.Add(blk.prof, blk.pc, retired, c.Cycles-cyclesBefore) {
							c.reslot(blk, retired, c.Cycles-cyclesBefore)
						}
					}
					if halted {
						return stop
					}
					switch exit {
					case exitSide:
						c.Blocks.SideExits++
						prev, prevExit = nil, exitNone
					case exitPart:
						prev, prevExit = nil, exitNone
					default:
						// Planned exit from the trace's final µop: chain from
						// the last stitched block exactly as the block tier
						// would.
						prev, prevExit = t.last, exit
					}
					continue
				}
				c.Blocks.Invalidations++
				c.recycleTrace(blk)
			} else if !blk.noTrace {
				blk.heat++
				if blk.heat >= c.TraceThreshold {
					c.buildTrace(blk)
				}
			}
		}
		before := c.Instret
		cyclesBefore := c.Cycles
		stop, halted, exit := c.execUops(blk.uops, remaining)
		retired := c.Instret - before
		c.Blocks.Dispatches++
		c.Blocks.Retired += retired
		remaining -= retired
		if h := c.Hooks; h != nil {
			if h.Cov != nil {
				h.Cov.Edge(blk.covID)
			}
			if h.Prof != nil && !h.Prof.Add(blk.prof, blk.pc, retired, c.Cycles-cyclesBefore) {
				c.reslot(blk, retired, c.Cycles-cyclesBefore)
			}
		}
		if halted {
			return stop
		}
		prev, prevExit = blk, exit
	}
	return Stop{Kind: StopLimit}
}

// reslot records a dispatch Hooks.Prof.Add refused: blk was translated
// under another Profile, so it takes a slot in this one first.
func (c *CPU) reslot(blk *block, retired, cycles uint64) {
	p := c.Hooks.Prof
	blk.prof = p.Slot(blk.pc)
	p.Add(blk.prof, blk.pc, retired, cycles)
}

// flushUops publishes locally-accumulated retirement state: uops
// [base, k) retired since the last flush, plus the accumulated cycles, and
// moves the architectural PC to pc.
func (c *CPU) flushUops(uops []uop, base, k int, cycles, pc uint64) {
	if k > base {
		c.Instret += uint64(k - base)
		c.LastInst = uops[k-1].inst
	}
	c.Cycles += cycles
	c.X[0] = 0
	c.PC = pc
}

// execUops executes up to max instructions of a µop vector — a basic block
// (every µop expNone) or a stitched trace (interior control transfers carry
// expectations). Architectural state (PC/Instret/Cycles/X[0]) is maintained
// in locals between flush points; every exit — vector end, unpredicted
// control transfer, failed guard, halt, fault, budget — flushes before
// returning, so faults and side exits are exactly as precise as stepping.
func (c *CPU) execUops(uops []uop, max uint64) (Stop, bool, int) {
	x := &c.X
	mem := c.Mem
	n := len(uops)
	partial := false
	if max < uint64(n) {
		n = int(max)
		partial = true
	}
	var cycles uint64
	base := 0
	for i := 0; i < n; i++ {
		u := &uops[i]
		switch u.op {
		case riscv.ADDI:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] + uint64(u.imm)
			}
		case riscv.ADD:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] + x[u.rs2]
			}
		case riscv.SUB:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] - x[u.rs2]
			}
		case riscv.LUI, riscv.AUIPC:
			if u.rd != 0 {
				x[u.rd] = u.target
			}
		case riscv.ANDI:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] & uint64(u.imm)
			}
		case riscv.ORI:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] | uint64(u.imm)
			}
		case riscv.XORI:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] ^ uint64(u.imm)
			}
		case riscv.AND:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] & x[u.rs2]
			}
		case riscv.OR:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] | x[u.rs2]
			}
		case riscv.XOR:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] ^ x[u.rs2]
			}
		case riscv.SLLI:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] << uint(u.imm)
			}
		case riscv.SRLI:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] >> uint(u.imm)
			}
		case riscv.SRAI:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(x[u.rs1]) >> uint(u.imm))
			}
		case riscv.SLL:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] << (x[u.rs2] & 63)
			}
		case riscv.SRL:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] >> (x[u.rs2] & 63)
			}
		case riscv.SRA:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(x[u.rs1]) >> (x[u.rs2] & 63))
			}
		case riscv.SLT:
			if u.rd != 0 {
				if int64(x[u.rs1]) < int64(x[u.rs2]) {
					x[u.rd] = 1
				} else {
					x[u.rd] = 0
				}
			}
		case riscv.SLTU:
			if u.rd != 0 {
				if x[u.rs1] < x[u.rs2] {
					x[u.rd] = 1
				} else {
					x[u.rd] = 0
				}
			}
		case riscv.SLTI:
			if u.rd != 0 {
				if int64(x[u.rs1]) < u.imm {
					x[u.rd] = 1
				} else {
					x[u.rd] = 0
				}
			}
		case riscv.SLTIU:
			if u.rd != 0 {
				if x[u.rs1] < uint64(u.imm) {
					x[u.rd] = 1
				} else {
					x[u.rd] = 0
				}
			}
		case riscv.ADDIW:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(int32(int64(x[u.rs1]) + u.imm)))
			}
		case riscv.ADDW:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(int32(x[u.rs1] + x[u.rs2])))
			}
		case riscv.SUBW:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(int32(x[u.rs1] - x[u.rs2])))
			}
		case riscv.SLLIW:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(int32(x[u.rs1]) << uint(u.imm)))
			}
		case riscv.SRLIW:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(int32(uint32(x[u.rs1]) >> uint(u.imm))))
			}
		case riscv.SRAIW:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(int32(x[u.rs1]) >> uint(u.imm)))
			}
		case riscv.MUL:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1] * x[u.rs2]
			}
		case riscv.SH1ADD:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1]<<1 + x[u.rs2]
			}
		case riscv.SH2ADD:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1]<<2 + x[u.rs2]
			}
		case riscv.SH3ADD:
			if u.rd != 0 {
				x[u.rd] = x[u.rs1]<<3 + x[u.rs2]
			}
		case riscv.FENCE:
			// no architectural effect

		case riscv.LD:
			addr := x[u.rs1] + uint64(u.imm)
			if u.hook&hookMem != 0 {
				c.Hooks.Mem.Access(u.pc, addr, 8, false)
			}
			if v, ok := mem.loadU64(addr); ok {
				if u.rd != 0 {
					x[u.rd] = v
				}
			} else {
				v, fa, ok := c.memLoad(addr, 8, true)
				if !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errLoad)
					return stop, h, exitPart
				}
				if u.rd != 0 {
					x[u.rd] = v
				}
			}
		case riscv.LW:
			addr := x[u.rs1] + uint64(u.imm)
			if u.hook&hookMem != 0 {
				c.Hooks.Mem.Access(u.pc, addr, 4, false)
			}
			if v, ok := mem.loadU32(addr); ok {
				if u.rd != 0 {
					x[u.rd] = uint64(int64(int32(v)))
				}
			} else {
				v, fa, ok := c.memLoad(addr, 4, true)
				if !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errLoad)
					return stop, h, exitPart
				}
				if u.rd != 0 {
					x[u.rd] = v
				}
			}
		case riscv.LWU:
			addr := x[u.rs1] + uint64(u.imm)
			if u.hook&hookMem != 0 {
				c.Hooks.Mem.Access(u.pc, addr, 4, false)
			}
			if v, ok := mem.loadU32(addr); ok {
				if u.rd != 0 {
					x[u.rd] = uint64(v)
				}
			} else {
				v, fa, ok := c.memLoad(addr, 4, false)
				if !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errLoad)
					return stop, h, exitPart
				}
				if u.rd != 0 {
					x[u.rd] = v
				}
			}
		case riscv.LB, riscv.LH, riscv.LBU, riscv.LHU:
			nbytes, signed := 1, true
			switch u.op {
			case riscv.LH:
				nbytes = 2
			case riscv.LBU:
				signed = false
			case riscv.LHU:
				nbytes, signed = 2, false
			}
			addr := x[u.rs1] + uint64(u.imm)
			if u.hook&hookMem != 0 {
				c.Hooks.Mem.Access(u.pc, addr, uint8(nbytes), false)
			}
			v, fa, ok := c.memLoad(addr, nbytes, signed)
			if !ok {
				c.flushUops(uops, base, i, cycles, u.pc)
				stop, h := c.fault(FaultAccess, fa, errLoad)
				return stop, h, exitPart
			}
			if u.rd != 0 {
				x[u.rd] = v
			}
		case riscv.SD:
			addr := x[u.rs1] + uint64(u.imm)
			if u.hook&hookMem != 0 {
				c.Hooks.Mem.Access(u.pc, addr, 8, true)
			}
			if !mem.storeU64(addr, x[u.rs2]) {
				if fa, ok := c.memStore(addr, x[u.rs2], 8); !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errStore)
					return stop, h, exitPart
				}
			}
		case riscv.SW:
			addr := x[u.rs1] + uint64(u.imm)
			if u.hook&hookMem != 0 {
				c.Hooks.Mem.Access(u.pc, addr, 4, true)
			}
			if !mem.storeU32(addr, uint32(x[u.rs2])) {
				if fa, ok := c.memStore(addr, x[u.rs2], 4); !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errStore)
					return stop, h, exitPart
				}
			}
		case riscv.SB, riscv.SH:
			nbytes := 1
			if u.op == riscv.SH {
				nbytes = 2
			}
			addr := x[u.rs1] + uint64(u.imm)
			if u.hook&hookMem != 0 {
				c.Hooks.Mem.Access(u.pc, addr, uint8(nbytes), true)
			}
			if fa, ok := c.memStore(addr, x[u.rs2], nbytes); !ok {
				c.flushUops(uops, base, i, cycles, u.pc)
				stop, h := c.fault(FaultAccess, fa, errStore)
				return stop, h, exitPart
			}

		case riscv.FLD:
			addr := x[u.rs1] + uint64(u.imm)
			if v, ok := mem.loadU64(addr); ok {
				c.F[u.rd] = v
			} else {
				v, fa, ok := c.memLoad(addr, 8, false)
				if !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errLoad)
					return stop, h, exitPart
				}
				c.F[u.rd] = v
			}
		case riscv.FSD:
			addr := x[u.rs1] + uint64(u.imm)
			if !mem.storeU64(addr, c.F[u.rs2]) {
				if fa, ok := c.memStore(addr, c.F[u.rs2], 8); !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errStore)
					return stop, h, exitPart
				}
			}
		case riscv.FLW:
			addr := x[u.rs1] + uint64(u.imm)
			if v, ok := mem.loadU32(addr); ok {
				c.F[u.rd] = 0xFFFFFFFF_00000000 | uint64(v)
			} else {
				v, fa, ok := c.memLoad(addr, 4, false)
				if !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errLoad)
					return stop, h, exitPart
				}
				c.F[u.rd] = 0xFFFFFFFF_00000000 | v
			}
		case riscv.FSW:
			addr := x[u.rs1] + uint64(u.imm)
			if !mem.storeU32(addr, uint32(c.F[u.rs2])) {
				if fa, ok := c.memStore(addr, c.F[u.rs2]&0xFFFFFFFF, 4); !ok {
					c.flushUops(uops, base, i, cycles, u.pc)
					stop, h := c.fault(FaultAccess, fa, errStore)
					return stop, h, exitPart
				}
			}

		case riscv.FADDD:
			c.F[u.rd] = f64b(f64(c.F[u.rs1]) + f64(c.F[u.rs2]))
		case riscv.FSUBD:
			c.F[u.rd] = f64b(f64(c.F[u.rs1]) - f64(c.F[u.rs2]))
		case riscv.FMULD:
			c.F[u.rd] = f64b(f64(c.F[u.rs1]) * f64(c.F[u.rs2]))
		case riscv.FDIVD:
			c.F[u.rd] = f64b(f64(c.F[u.rs1]) / f64(c.F[u.rs2]))
		case riscv.FMADDD:
			c.F[u.rd] = f64b(f64(c.F[u.rs1])*f64(c.F[u.rs2]) + f64(c.F[u.rs3]))
		case riscv.FMADDS:
			c.F[u.rd] = f32b(f32of(c.F[u.rs1])*f32of(c.F[u.rs2]) + f32of(c.F[u.rs3]))
		case riscv.FCVTDL:
			c.F[u.rd] = f64b(float64(int64(x[u.rs1])))
		case riscv.FCVTLD:
			if u.rd != 0 {
				x[u.rd] = uint64(int64(f64(c.F[u.rs1])))
			}

		case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
			if u.hook&hookCmp != 0 {
				c.Hooks.Cmp.Log(u.pc, x[u.rs1], x[u.rs2])
			}
			var taken bool
			switch u.op {
			case riscv.BEQ:
				taken = x[u.rs1] == x[u.rs2]
			case riscv.BNE:
				taken = x[u.rs1] != x[u.rs2]
			case riscv.BLT:
				taken = int64(x[u.rs1]) < int64(x[u.rs2])
			case riscv.BGE:
				taken = int64(x[u.rs1]) >= int64(x[u.rs2])
			case riscv.BLTU:
				taken = x[u.rs1] < x[u.rs2]
			case riscv.BGEU:
				taken = x[u.rs1] >= x[u.rs2]
			}
			if u.expect == expNone {
				if taken {
					c.flushUops(uops, base, i+1, cycles+u.costT, u.target)
					return Stop{}, false, exitTake
				}
				// not taken: fall through; costN charged below
			} else if taken == (u.expect == expTaken) {
				// Guard held: stay in the trace. The next µop is the
				// predicted successor's first instruction.
				cont := u.next
				if taken {
					cycles += u.costT
					cont = u.target
				} else {
					cycles += u.costN
				}
				if i+1 == n {
					// Budget truncation landed on the seam.
					c.flushUops(uops, base, i+1, cycles, cont)
					return Stop{}, false, exitPart
				}
				continue
			} else {
				// Guard failed: precise side exit to the actual successor.
				if taken {
					c.flushUops(uops, base, i+1, cycles+u.costT, u.target)
				} else {
					c.flushUops(uops, base, i+1, cycles+u.costN, u.next)
				}
				return Stop{}, false, exitSide
			}
		case riscv.JAL:
			if u.rd != 0 {
				x[u.rd] = u.next
			}
			if u.expect == expFold {
				cycles += u.costT
				if i+1 == n {
					c.flushUops(uops, base, i+1, cycles, u.target)
					return Stop{}, false, exitPart
				}
				continue
			}
			c.flushUops(uops, base, i+1, cycles+u.costT, u.target)
			return Stop{}, false, exitTake
		case riscv.JALR:
			target := (x[u.rs1] + uint64(u.imm)) &^ 1
			h := c.Hooks
			hooked := h != nil && h.Indirect != nil
			if hooked {
				nt, extra := h.Indirect(u.pc, target)
				target = nt
				cycles += extra
				h.IndirectCalls++
			}
			if u.rd != 0 {
				x[u.rd] = u.next
			}
			if u.expect == expJalr {
				// The hook may have patched code or redirected the target;
				// only an unhooked, matching jump may stay in the trace.
				if !hooked && target == u.target {
					cycles += u.costT
					if i+1 == n {
						c.flushUops(uops, base, i+1, cycles, target)
						return Stop{}, false, exitPart
					}
					continue
				}
				c.flushUops(uops, base, i+1, cycles+u.costT, target)
				return Stop{}, false, exitSide
			}
			c.flushUops(uops, base, i+1, cycles+u.costT, target)
			return Stop{}, false, exitJalr

		default:
			// Anything else — ECALL/EBREAK, division, the FP/vector long
			// tail — runs through the interpreter's exec after flushing, so
			// stops and faults observe exact architectural state.
			c.flushUops(uops, base, i, cycles, u.pc)
			cycles = 0
			stop, halted := c.exec(u.inst)
			if halted {
				return stop, true, exitPart
			}
			base = i + 1
			continue
		}
		cycles += u.costN
	}
	last := &uops[n-1]
	c.flushUops(uops, base, n, cycles, last.next)
	if partial {
		return Stop{}, false, exitPart
	}
	return Stop{}, false, exitFall
}
