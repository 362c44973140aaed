// Package rewriters implements the binary-rewriting baselines Chimera is
// evaluated against (§6.2): ARMore-style binary patching (relocate
// everything, fill the original text with single-instruction trampolines,
// trap where one jump cannot reach), Safer-style binary regeneration
// (relocate everything, check every indirect jump at run time), and the
// strawman all-trap patcher (CHBP with trap entries).
//
// All baselines emit chbp.Tables so the simulated kernel handles their
// runtime needs uniformly.
package rewriters

import (
	"encoding/binary"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// relocOptions configures the shared full-relocation engine.
type relocOptions struct {
	targetISA  riscv.Ext
	emptyPatch bool
	newBase    uint64
	ctx        *translate.Context
}

// relocation is the engine's output: the new code and the orig→new address
// map regeneration and patching baselines both need.
type relocation struct {
	code    []byte
	addrMap map[uint64]uint64
	// trapResume maps ebreak addresses in the *new* code (emitted where a
	// direct jump could not reach) to the new address execution resumes at.
	trapResume map[uint64]uint64
	newEnd     uint64
}

// relocateAll rebuilds every recognized instruction at a new address,
// translating source instructions and retargeting direct control flow.
func relocateAll(d *dis.Result, o relocOptions) (*relocation, error) {
	isSource := func(in riscv.Inst) bool {
		if o.emptyPatch {
			return in.Extension() == riscv.ExtV
		}
		return !o.targetISA.Has(in.Extension())
	}
	// Regeneration applies upgrades inline: a matched idiom's replacement
	// is emitted at the sequence head; the consumed instructions vanish
	// (their addresses map to the replacement head).
	upgradeBody := make(map[uint64][]riscv.Inst)
	upgradeTail := make(map[uint64]uint64) // consumed addr -> site head
	if !o.emptyPatch {
		for _, u := range translate.MatchUpgrades(d) {
			fits := true
			for _, in := range u.Replacement {
				if !o.targetISA.Has(in.Extension()) {
					fits = false
					break
				}
			}
			srcTainted := false
			for _, a := range u.Addrs {
				if in, ok := d.At(a); ok && isSource(in) {
					srcTainted = true
					break
				}
			}
			if !fits || srcTainted {
				continue
			}
			upgradeBody[u.Addrs[0]] = u.Replacement
			for _, a := range u.Addrs[1:] {
				upgradeTail[a] = u.Addrs[0]
			}
		}
	}
	sew := riscv.E64
	// Pass 1: per-instruction translations and emitted sizes.
	sizes := make(map[uint64]int, len(d.Order))
	bodies := make(map[uint64][]riscv.Inst, len(d.Order))
	for _, a := range d.Order {
		in := d.Insns[a]
		if in.Op == riscv.VSETVLI {
			sew = riscv.SEWOf(in.Imm)
		}
		if body, ok := upgradeBody[a]; ok {
			bodies[a] = body
			sizes[a] = 4 * len(body)
			continue
		}
		if _, ok := upgradeTail[a]; ok {
			sizes[a] = 0
			continue
		}
		switch {
		case isSource(in):
			if o.emptyPatch {
				cp := in
				cp.Len = 4
				bodies[a] = []riscv.Inst{cp}
				sizes[a] = 4
				continue
			}
			seq, err := translate.Downgrade(in, sew, o.ctx)
			if err != nil {
				return nil, fmt.Errorf("rewriters: translate %s at %#x: %w", in, a, err)
			}
			bodies[a] = seq
			sizes[a] = 4 * len(seq)
		case in.IsBranch():
			sizes[a] = 8 // inverted branch + jal (or ebreak)
		case in.Op == riscv.JAL:
			sizes[a] = 8 // jal+pad, auipc/jalr pair, or ebreak+pad
		case in.Op == riscv.AUIPC:
			sizes[a] = 8 // lui+addiw materialization of the original value
		default:
			sizes[a] = 4
		}
	}
	// Assign new addresses.
	addrMap := make(map[uint64]uint64, len(d.Order))
	cursor := o.newBase
	for _, a := range d.Order {
		addrMap[a] = cursor
		cursor += uint64(sizes[a])
	}
	for a, head := range upgradeTail {
		addrMap[a] = addrMap[head]
	}
	out := &relocation{
		code:       make([]byte, cursor-o.newBase),
		addrMap:    addrMap,
		trapResume: make(map[uint64]uint64),
		newEnd:     cursor,
	}

	emitAt := func(off uint64, in riscv.Inst) error {
		w, err := riscv.Encode(in)
		if err != nil {
			return fmt.Errorf("rewriters: encode %v: %w", in, err)
		}
		binary.LittleEndian.PutUint32(out.code[off:], w)
		return nil
	}
	nop := riscv.Inst{Op: riscv.ADDI}

	// Pass 2: emit.
	for _, a := range d.Order {
		if _, consumed := upgradeTail[a]; consumed {
			continue
		}
		in := d.Insns[a]
		newPC := addrMap[a]
		off := newPC - o.newBase
		if body, ok := bodies[a]; ok {
			for i, bi := range body {
				if err := emitAt(off+uint64(4*i), bi); err != nil {
					return nil, err
				}
			}
			continue
		}
		switch {
		case in.IsBranch():
			target := a + uint64(in.Imm)
			newTarget, known := addrMap[target]
			inv := invertBranch(in)
			inv.Len = 4
			inv.Imm = 8 // skip the jump when the original branch is not taken
			if err := emitAt(off, inv); err != nil {
				return nil, err
			}
			if !known {
				out.trapResume[newPC+4] = 0 // unreachable target: hard trap
				if err := emitAt(off+4, riscv.Inst{Op: riscv.EBREAK}); err != nil {
					return nil, err
				}
				continue
			}
			delta := int64(newTarget) - int64(newPC+4)
			if fitsJal(delta) {
				if err := emitAt(off+4, riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: delta}); err != nil {
					return nil, err
				}
			} else {
				out.trapResume[newPC+4] = newTarget
				if err := emitAt(off+4, riscv.Inst{Op: riscv.EBREAK}); err != nil {
					return nil, err
				}
			}
		case in.Op == riscv.JAL:
			target := a + uint64(in.Imm)
			newTarget, known := addrMap[target]
			if in.Rd == riscv.RA && known {
				// Far-capable call pair; ra points into the new code.
				delta := int64(newTarget) - int64(newPC)
				hi := (delta + 0x800) >> 12
				lo := delta - hi<<12
				if err := emitAt(off, riscv.Inst{Op: riscv.AUIPC, Rd: riscv.RA, Imm: hi}); err != nil {
					return nil, err
				}
				if err := emitAt(off+4, riscv.Inst{Op: riscv.JALR, Rd: riscv.RA, Rs1: riscv.RA, Imm: lo}); err != nil {
					return nil, err
				}
				continue
			}
			if known {
				delta := int64(newTarget) - int64(newPC)
				if fitsJal(delta) {
					if err := emitAt(off, riscv.Inst{Op: riscv.JAL, Rd: in.Rd, Imm: delta}); err != nil {
						return nil, err
					}
					if err := emitAt(off+4, nop); err != nil {
						return nil, err
					}
					continue
				}
			}
			out.trapResume[newPC] = newTarget // 0 when unknown
			if err := emitAt(off, riscv.Inst{Op: riscv.EBREAK}); err != nil {
				return nil, err
			}
			if err := emitAt(off+4, nop); err != nil {
				return nil, err
			}
		case in.Op == riscv.AUIPC:
			// Recompute the original pc-relative value so data references
			// and code pointers keep original addresses.
			v := int64(a) + in.Imm<<12
			hi := (v + 0x800) >> 12
			lo := v - hi<<12
			if err := emitAt(off, riscv.Inst{Op: riscv.LUI, Rd: in.Rd, Imm: hi}); err != nil {
				return nil, err
			}
			if err := emitAt(off+4, riscv.Inst{Op: riscv.ADDIW, Rd: in.Rd, Rs1: in.Rd, Imm: lo}); err != nil {
				return nil, err
			}
		default:
			cp := in
			cp.Len = 4
			if err := emitAt(off, cp); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func fitsJal(delta int64) bool { return delta >= -(1<<20) && delta < 1<<20 && delta%2 == 0 }

func invertBranch(in riscv.Inst) riscv.Inst {
	out := in
	switch in.Op {
	case riscv.BEQ:
		out.Op = riscv.BNE
	case riscv.BNE:
		out.Op = riscv.BEQ
	case riscv.BLT:
		out.Op = riscv.BGE
	case riscv.BGE:
		out.Op = riscv.BLT
	case riscv.BLTU:
		out.Op = riscv.BGEU
	case riscv.BGEU:
		out.Op = riscv.BLTU
	}
	return out
}

// newLayout computes where the baselines place their generated sections.
func newLayout(img *obj.Image) (vregAddr, newBase uint64) {
	highest := uint64(0)
	for _, s := range img.Sections {
		if s.End() > highest {
			highest = s.End()
		}
	}
	vregAddr = obj.AlignUp(highest, obj.PageSize)
	newBase = obj.AlignUp(vregAddr+translate.VRegFileSize, obj.PageSize)
	return
}
