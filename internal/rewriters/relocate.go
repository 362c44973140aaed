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

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// relocation is the engine's output: the new code, and every instruction's
// new address by position in the disassembly's Order (newAddr) and as the
// orig→new map the kernel and the Safer hook consume (addrMap).
type relocation struct {
	code    []byte
	newAddr []uint64
	addrMap map[uint64]uint64
	// trapResume maps ebreak addresses in the *new* code (emitted where a
	// direct jump could not reach) to the new address execution resumes at.
	trapResume map[uint64]uint64
	// The generated sections' layout (newLayout): the vector register
	// file, and the new code at [newBase, newEnd).
	vregAddr, newBase, newEnd uint64
}

// relocateAll rebuilds every recognized instruction of img (disassembled
// as d) at a new address, translating source instructions and retargeting
// direct control flow.
func relocateAll(img *obj.Image, d *dis.Result, targetISA riscv.Ext, emptyPatch bool) (*relocation, error) {
	vregAddr, newBase := newLayout(img)
	ctx := &translate.Context{VRegBase: vregAddr}
	isSource := func(in riscv.Inst) bool {
		if emptyPatch {
			return in.Extension() == riscv.ExtV
		}
		return !targetISA.Has(in.Extension())
	}
	// Indexed by position in d.Order: the emitted size, the body to emit
	// verbatim when the instruction has one (an upgrade or a translation),
	// and the new address.
	sizes := make([]int, len(d.Order))
	bodies := make([][]riscv.Inst, len(d.Order))
	hasBody := make([]bool, len(d.Order))
	newAddr := make([]uint64, len(d.Order))
	// Regeneration applies upgrades inline: a matched idiom's replacement
	// is emitted at the sequence head; the consumed instructions vanish
	// (their addresses map to the replacement head). headOf holds, for a
	// consumed instruction, its site head's position plus one.
	headOf := make([]int, len(d.Order))
	if !emptyPatch {
		for _, u := range translate.MatchUpgrades(d) {
			fits := true
			for _, in := range u.Replacement {
				if !targetISA.Has(in.Extension()) {
					fits = false
					break
				}
			}
			var pos [8]int // the longest idiom (axpy) is 8 instructions
			at := pos[:0]
			for _, a := range u.Addrs {
				i, ok := d.Index(a)
				if !ok || isSource(d.Order[i].Inst) {
					fits = false
					break
				}
				at = append(at, i)
			}
			if !fits {
				continue
			}
			bodies[at[0]], hasBody[at[0]] = u.Replacement, true
			for _, i := range at[1:] {
				headOf[i] = at[0] + 1
			}
		}
	}
	sew := riscv.E64
	// Pass 1: per-instruction translations and emitted sizes.
	for i, x := range d.Order {
		a, in := x.Addr, x.Inst
		if in.Op == riscv.VSETVLI {
			sew = riscv.SEWOf(in.Imm)
		}
		if hasBody[i] {
			sizes[i] = 4 * len(bodies[i])
			continue
		}
		if headOf[i] != 0 {
			continue
		}
		switch {
		case isSource(in):
			if emptyPatch {
				cp := in
				cp.Len = 4
				bodies[i], hasBody[i] = []riscv.Inst{cp}, true
				sizes[i] = 4
				continue
			}
			seq, err := translate.Downgrade(in, sew, ctx)
			if err != nil {
				return nil, fmt.Errorf("rewriters: translate %s at %#x: %w", in, a, err)
			}
			bodies[i], hasBody[i] = seq, true
			sizes[i] = 4 * len(seq)
		case in.IsBranch():
			sizes[i] = 8 // inverted branch + jal (or ebreak)
		case in.Op == riscv.JAL:
			sizes[i] = 8 // jal+pad, auipc/jalr pair, or ebreak+pad
		case in.Op == riscv.AUIPC:
			sizes[i] = 8 // lui+addiw materialization of the original value
		default:
			sizes[i] = 4
		}
	}
	// Assign new addresses; a consumed instruction takes its site head's.
	addrMap := make(map[uint64]uint64, len(d.Order))
	cursor := newBase
	for i, x := range d.Order {
		newAddr[i] = cursor
		if h := headOf[i]; h != 0 {
			newAddr[i] = newAddr[h-1]
		}
		addrMap[x.Addr] = newAddr[i]
		cursor += uint64(sizes[i])
	}
	out := &relocation{
		code:       make([]byte, cursor-newBase),
		newAddr:    newAddr,
		addrMap:    addrMap,
		trapResume: make(map[uint64]uint64),
		vregAddr:   vregAddr,
		newBase:    newBase,
		newEnd:     cursor,
	}
	// relocated maps an original code address to its new address.
	relocated := func(a uint64) (uint64, bool) {
		i, ok := d.Index(a)
		if !ok {
			return 0, false
		}
		return newAddr[i], true
	}

	// emitAt encodes in at code offset off; the first encoding failure is
	// kept and returned once the pass ends.
	var emitErr error
	emitAt := func(off uint64, in riscv.Inst) {
		w, err := riscv.Encode(in)
		if err != nil {
			if emitErr == nil {
				emitErr = fmt.Errorf("rewriters: encode %v: %w", in, err)
			}
			return
		}
		binary.LittleEndian.PutUint32(out.code[off:], w)
	}
	nop := riscv.Inst{Op: riscv.ADDI}

	// Pass 2: emit.
	for i, x := range d.Order {
		a, in := x.Addr, x.Inst
		if headOf[i] != 0 {
			continue
		}
		newPC := newAddr[i]
		off := newPC - newBase
		if hasBody[i] {
			for k, bi := range bodies[i] {
				emitAt(off+uint64(4*k), bi)
			}
			continue
		}
		switch {
		case in.IsBranch():
			newTarget, known := relocated(a + uint64(in.Imm))
			inv := invertBranch(in)
			inv.Len = 4
			inv.Imm = 8 // skip the jump when the original branch is not taken
			emitAt(off, inv)
			if !known {
				out.trapResume[newPC+4] = 0 // unreachable target: hard trap
				emitAt(off+4, riscv.Inst{Op: riscv.EBREAK})
				continue
			}
			delta := int64(newTarget) - int64(newPC+4)
			if fitsJal(delta) {
				emitAt(off+4, riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: delta})
			} else {
				out.trapResume[newPC+4] = newTarget
				emitAt(off+4, riscv.Inst{Op: riscv.EBREAK})
			}
		case in.Op == riscv.JAL:
			newTarget, known := relocated(a + uint64(in.Imm))
			if in.Rd == riscv.RA && known {
				// Far-capable call pair; ra points into the new code.
				delta := int64(newTarget) - int64(newPC)
				hi := (delta + 0x800) >> 12
				lo := delta - hi<<12
				emitAt(off, riscv.Inst{Op: riscv.AUIPC, Rd: riscv.RA, Imm: hi})
				emitAt(off+4, riscv.Inst{Op: riscv.JALR, Rd: riscv.RA, Rs1: riscv.RA, Imm: lo})
				continue
			}
			if known {
				delta := int64(newTarget) - int64(newPC)
				if fitsJal(delta) {
					emitAt(off, riscv.Inst{Op: riscv.JAL, Rd: in.Rd, Imm: delta})
					emitAt(off+4, nop)
					continue
				}
			}
			out.trapResume[newPC] = newTarget // 0 when unknown
			emitAt(off, riscv.Inst{Op: riscv.EBREAK})
			emitAt(off+4, nop)
		case in.Op == riscv.AUIPC:
			// Recompute the original pc-relative value so data references
			// and code pointers keep original addresses.
			v := int64(a) + in.Imm<<12
			hi := (v + 0x800) >> 12
			lo := v - hi<<12
			emitAt(off, riscv.Inst{Op: riscv.LUI, Rd: in.Rd, Imm: hi})
			emitAt(off+4, riscv.Inst{Op: riscv.ADDIW, Rd: in.Rd, Rs1: in.Rd, Imm: lo})
		default:
			cp := in
			cp.Len = 4
			emitAt(off, cp)
		}
	}
	if emitErr != nil {
		return nil, emitErr
	}
	return out, nil
}

// install adds the relocation to rw, the rewritten copy of img: the vector
// register file, the new code and tables (completed with the trap exits
// inside the new code) as sections, and the relocated entry point.
func (rel *relocation) install(rw, img *obj.Image, tables *chbp.Tables, targetISA riscv.Ext, emptyPatch bool) error {
	for addr, resume := range rel.trapResume {
		tables.ExitTrap[addr] = resume
	}
	tables.TargetStart, tables.TargetEnd = rel.newBase, rel.newEnd
	rw.AddSection(&obj.Section{Name: obj.SecVRegFile, Addr: rel.vregAddr,
		Data: make([]byte, translate.VRegFileSize), Perm: obj.PermRW})
	rw.AddSection(&obj.Section{Name: obj.SecTarget, Addr: rel.newBase,
		Data: rel.code, Perm: obj.PermRX})
	rw.AddSection(&obj.Section{Name: obj.SecFaultTab,
		Addr: obj.AlignUp(rel.newEnd+1, obj.PageSize), Data: tables.Marshal(), Perm: obj.PermR})
	entry, ok := rel.addrMap[img.Entry]
	if !ok {
		return fmt.Errorf("rewriters: entry %#x not relocated", img.Entry)
	}
	rw.Entry = entry
	if !emptyPatch {
		rw.ISA = targetISA
	}
	return rw.Validate()
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
