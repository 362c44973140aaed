package rewriters

import (
	"encoding/binary"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// ARMoreWith rewrites an image the way ARMore does when ported to RISC-V
// (§2.2): every instruction is relocated to a new code section; the
// original code section becomes a field of single-instruction trampolines
// keeping the original-to-relocated address mapping alive for indirect
// jumps. RISC-V's jal reaches only ±1MB, so most trampolines in large
// binaries degrade to traps — the effect the paper measures at 171.5%
// average overhead.
//
// A resolver TargetSet ts (from resolve.Resolve on the same image; nil
// means plain ARMore) completes the disassembly with code reachable only
// through recovered jump tables, so those arms get relocated copies and
// per-instruction trampolines like any other code instead of faulting at
// their original addresses. Panics and image-dependent failures come back
// as ErrRewriteReject.
func ARMoreWith(img *obj.Image, targetISA riscv.Ext, emptyPatch bool, ts *resolve.TargetSet) (out *Rewritten, err error) {
	defer reject("armore", &out, &err)
	d, recovered := decoded(img, ts)
	resolved := resolvedTargets(ts)
	rel, err := relocateAll(img, d, targetISA, emptyPatch)
	if err != nil {
		return nil, err
	}

	rw := img.Clone()
	rw.Name = img.Name + ".armore"
	tables := chbp.NewTables(img.GP)
	stats := Stats{Insts: len(d.Order), NewCodeBytes: len(rel.code),
		RecoveredInsts: recovered, ResolvedTargets: len(resolved)}

	// Fill the original text with single-instruction trampolines.
	for i, x := range d.Order {
		a, in, newAddr := x.Addr, x.Inst, rel.newAddr[i]
		stats.Trampolines++
		delta := int64(newAddr) - int64(a)
		if in.Len == 4 && fitsJal(delta) {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], riscv.MustEncode(
				riscv.Inst{Op: riscv.JAL, Rd: riscv.Zero, Imm: delta}))
			if err := rw.WriteAt(a, b[:]); err != nil {
				return nil, err
			}
			continue
		}
		// 2-byte slot or out of jal range: trap-based trampoline.
		stats.TrapTrampolines++
		tables.Trap[a] = newAddr
		if err := writeEbreak(rw, a, in.Len); err != nil {
			return nil, err
		}
	}

	if err := rel.install(rw, img, tables, targetISA, emptyPatch); err != nil {
		return nil, err
	}
	return &Rewritten{Image: rw, Tables: tables, AddrMap: rel.addrMap, Resolved: resolved, Stats: stats}, nil
}

func writeEbreak(img *obj.Image, addr uint64, length int) error {
	if length == 2 {
		p, err := riscv.EncodeCompressed(riscv.Inst{Op: riscv.EBREAK})
		if err != nil {
			return err
		}
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], p)
		return img.WriteAt(addr, b[:])
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], riscv.MustEncode(riscv.Inst{Op: riscv.EBREAK}))
	return img.WriteAt(addr, b[:])
}
