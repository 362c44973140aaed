package emu

import "github.com/eurosys26p57/chimera/internal/riscv"

// DefaultTraceThreshold is the block dispatch count at which a chain is
// promoted into a superblock trace (CPU.TraceThreshold; 0 disables the
// tier). Low enough that steady loops promote within the first few
// milliseconds of guest time, high enough that one-shot startup code never
// pays a stitch.
const DefaultTraceThreshold = 64

// stitchSuccessor is the trace builder's profile-guided successor policy:
// given the block b just stitched and last (the trace's copy of b's
// terminal µop), pick the continuation block and burn the matching guard
// expectation into last. It returns nil — leaving last at expNone, the
// plain block-tier exit — when the seam cannot be predicted: unchained or
// stale successors, an indirect jump with no PIC history (or with an
// indirect hook installed, which may redirect or patch at every call), or a
// terminal ECALL/EBREAK. Pure observers (coverage, cmp, mem) never veto a
// seam: they cannot change guest behavior, so traces promote under them
// exactly as when uninstrumented.
func (c *CPU) stitchSuccessor(b *block, last *uop) *block {
	switch last.op {
	case riscv.JAL:
		if s := b.succTake; s != nil && c.blockValid(s, last.target) {
			last.expect = expFold
			return s
		}
	case riscv.JALR:
		if h := c.Hooks; h != nil && h.Indirect != nil {
			return nil
		}
		// Predict the MRU polymorphic-inline-cache entry.
		if s := b.picB[0]; s != nil && b.picPC[0] != 0 && c.blockValid(s, b.picPC[0]) {
			last.expect = expJalr
			last.target = b.picPC[0]
			return s
		}
	case riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU:
		fall, take := b.succFall, b.succTake
		fallOK := fall != nil && c.blockValid(fall, last.next)
		takeOK := take != nil && c.blockValid(take, last.target)
		// Follow the hotter side; ties go to the fallthrough (the static
		// not-taken hint).
		if takeOK && (!fallOK || take.heat > fall.heat) {
			last.expect = expTaken
			return take
		}
		if fallOK {
			last.expect = expNotTaken
			return fall
		}
	default:
		// Non-control block end (ISA boundary, size cap, page edge): the
		// fallthrough is unconditional, so the seam needs no guard.
		if s := b.succFall; s != nil && c.blockValid(s, last.next) {
			return s
		}
	}
	return nil
}
