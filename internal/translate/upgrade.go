package translate

import (
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// UpgradeSite is a matched base-instruction idiom and its extension-ISA
// replacement. The addresses are contiguous instructions forming the source
// sequence (Fig. 6b upgrades a run of source instructions at once).
type UpgradeSite struct {
	Kind  string
	Addrs []uint64
	// Replacement is the extension-ISA target sequence (4-byte encodings).
	Replacement []riscv.Inst
}

// Start returns the first source address.
func (u *UpgradeSite) Start() uint64 { return u.Addrs[0] }

// MatchUpgrades scans a disassembly for upgradeable idioms. Like the
// paper's upgrade path, it is template-driven: it recognizes the scalar
// loop shapes compilers (here: the workload builder) emit for dot-product
// and axpy kernels, plus the slli+add pair that Zba's shNadd fuses. Each
// template is tried only where its first opcode sits, on a window of the
// disassembly itself, so a scan allocates only for the sites it returns.
func MatchUpgrades(d *dis.Result) []UpgradeSite {
	var sites []UpgradeSite
	var claimed map[uint64]bool
	claim := func(s UpgradeSite) {
		for _, a := range s.Addrs {
			if claimed[a] {
				return
			}
		}
		if claimed == nil {
			claimed = make(map[uint64]bool)
		}
		for _, a := range s.Addrs {
			claimed[a] = true
		}
		sites = append(sites, s)
	}
	for i, in := range d.Order {
		if claimed[in.Addr] {
			continue
		}
		switch in.Inst.Op {
		case riscv.FLD:
			if w, ok := d.Window(i, 7); ok {
				if s, ok := matchDotLoop(w); ok {
					claim(s)
					continue
				}
			}
			if w, ok := d.Window(i, 8); ok {
				if s, ok := matchAxpyLoop(w); ok {
					claim(s)
				}
			}
		case riscv.SLLI:
			if w, ok := d.Window(i, 2); ok {
				if s, ok := matchShadd(w); ok {
					claim(s)
				}
			}
		}
	}
	return sites
}

// addrsOf lists a matched window's addresses: the one allocation a match
// makes for its source sequence.
func addrsOf(w []dis.Insn) []uint64 {
	out := make([]uint64, len(w))
	for i, in := range w {
		out[i] = in.Addr
	}
	return out
}

// matchDotLoop recognizes the canonical scalar dot-product inner loop:
//
//	loop: fld fX, 0(rA); fld fY, 0(rB); fmadd.d fACC, fX, fY, fACC
//	      addi rA, rA, 8; addi rB, rB, 8; addi rN, rN, -1
//	      bne rN, zero, loop
func matchDotLoop(w []dis.Insn) (UpgradeSite, bool) {
	l0, l1, fma, adA, adB, adN, br := w[0].Inst, w[1].Inst, w[2].Inst, w[3].Inst, w[4].Inst, w[5].Inst, w[6].Inst
	if l0.Op != riscv.FLD || l0.Imm != 0 ||
		l1.Op != riscv.FLD || l1.Imm != 0 ||
		fma.Op != riscv.FMADDD || fma.Rs1 != l0.Rd || fma.Rs2 != l1.Rd || fma.Rs3 != fma.Rd {
		return UpgradeSite{}, false
	}
	rA, rB := l0.Rs1, l1.Rs1
	if adA.Op != riscv.ADDI || adA.Rd != rA || adA.Rs1 != rA || adA.Imm != 8 ||
		adB.Op != riscv.ADDI || adB.Rd != rB || adB.Rs1 != rB || adB.Imm != 8 {
		return UpgradeSite{}, false
	}
	rN := adN.Rd
	if adN.Op != riscv.ADDI || adN.Rs1 != rN || adN.Imm != -1 || rN == rA || rN == rB {
		return UpgradeSite{}, false
	}
	if br.Op != riscv.BNE || br.Rs1 != rN || br.Rs2 != riscv.Zero ||
		w[6].Addr+uint64(br.Imm) != w[0].Addr {
		return UpgradeSite{}, false
	}
	acc := fma.Rd

	s := newSeq()
	xs := pickScratch(2, rA, rB, rN)
	t0, t1 := xs[0], xs[1]
	withSaves(s, xs, nil, func() {
		vt := riscv.VType(riscv.E64)
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: riscv.Zero, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VMVVI, Rd: 2, Imm: 0}) // acc vector
		s.label("loop")
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: rN, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 0, Rs1: rA})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: rB})
		s.emit(riscv.Inst{Op: riscv.VFMACCVV, Rd: 2, Rs1: 0, Rs2: 1})
		s.imm(riscv.SLLI, t1, t0, 3)
		s.op(riscv.ADD, rA, rA, t1)
		s.op(riscv.ADD, rB, rB, t1)
		s.op(riscv.SUB, rN, rN, t0)
		s.branch(riscv.BNE, rN, riscv.Zero, "loop")
		// Reduce at full length: v1[0] seeded with the scalar accumulator.
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: riscv.Zero, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VFMVVF, Rd: 1, Rs1: acc})
		s.emit(riscv.Inst{Op: riscv.VFREDUSUMVS, Rd: 0, Rs1: 1, Rs2: 2})
		s.emit(riscv.Inst{Op: riscv.VFMVFS, Rd: acc, Rs2: 0})
	})
	repl, err := s.finish()
	if err != nil {
		return UpgradeSite{}, false
	}
	return UpgradeSite{Kind: "dot.e64", Addrs: addrsOf(w), Replacement: repl}, true
}

// matchAxpyLoop recognizes the canonical scalar axpy inner loop:
//
//	loop: fld fX, 0(rA); fld fY, 0(rB); fmadd.d fY, fX, fALPHA, fY; fsd fY, 0(rB)
//	      addi rA, rA, 8; addi rB, rB, 8; addi rN, rN, -1
//	      bne rN, zero, loop
func matchAxpyLoop(w []dis.Insn) (UpgradeSite, bool) {
	l0, l1, fma, st, adA, adB, adN, br := w[0].Inst, w[1].Inst, w[2].Inst, w[3].Inst, w[4].Inst, w[5].Inst, w[6].Inst, w[7].Inst
	if l0.Op != riscv.FLD || l0.Imm != 0 ||
		l1.Op != riscv.FLD || l1.Imm != 0 ||
		fma.Op != riscv.FMADDD || fma.Rs1 != l0.Rd || fma.Rd != l1.Rd || fma.Rs3 != l1.Rd {
		return UpgradeSite{}, false
	}
	alpha := fma.Rs2
	rA, rB := l0.Rs1, l1.Rs1
	if st.Op != riscv.FSD || st.Rs2 != fma.Rd || st.Rs1 != rB || st.Imm != 0 {
		return UpgradeSite{}, false
	}
	if adA.Op != riscv.ADDI || adA.Rd != rA || adA.Rs1 != rA || adA.Imm != 8 ||
		adB.Op != riscv.ADDI || adB.Rd != rB || adB.Rs1 != rB || adB.Imm != 8 {
		return UpgradeSite{}, false
	}
	rN := adN.Rd
	if adN.Op != riscv.ADDI || adN.Rs1 != rN || adN.Imm != -1 || rN == rA || rN == rB {
		return UpgradeSite{}, false
	}
	if br.Op != riscv.BNE || br.Rs1 != rN || br.Rs2 != riscv.Zero ||
		w[7].Addr+uint64(br.Imm) != w[0].Addr {
		return UpgradeSite{}, false
	}

	s := newSeq()
	xs := pickScratch(2, rA, rB, rN)
	t0, t1 := xs[0], xs[1]
	withSaves(s, xs, nil, func() {
		vt := riscv.VType(riscv.E64)
		s.label("loop")
		s.emit(riscv.Inst{Op: riscv.VSETVLI, Rd: t0, Rs1: rN, Imm: vt})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 0, Rs1: rA})
		s.emit(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: rB})
		s.emit(riscv.Inst{Op: riscv.VFMACCVF, Rd: 1, Rs1: alpha, Rs2: 0})
		s.emit(riscv.Inst{Op: riscv.VSE64V, Rd: 1, Rs1: rB})
		s.imm(riscv.SLLI, t1, t0, 3)
		s.op(riscv.ADD, rA, rA, t1)
		s.op(riscv.ADD, rB, rB, t1)
		s.op(riscv.SUB, rN, rN, t0)
		s.branch(riscv.BNE, rN, riscv.Zero, "loop")
	})
	repl, err := s.finish()
	if err != nil {
		return UpgradeSite{}, false
	}
	return UpgradeSite{Kind: "axpy.e64", Addrs: addrsOf(w), Replacement: repl}, true
}

// matchShadd recognizes "slli rd, rs1, k; add rd, rd, rs2" (k in 1..3,
// rs2 != rd) and fuses it into Zba's shNadd.
func matchShadd(w []dis.Insn) (UpgradeSite, bool) {
	sl, ad := w[0].Inst, w[1].Inst
	if sl.Op != riscv.SLLI || sl.Imm < 1 || sl.Imm > 3 {
		return UpgradeSite{}, false
	}
	if ad.Op != riscv.ADD || ad.Rd != sl.Rd || ad.Rs1 != sl.Rd || ad.Rs2 == sl.Rd || ad.Rs2 == riscv.Zero {
		return UpgradeSite{}, false
	}
	// rd must not alias rs1: shNadd reads rs1 after the original slli would
	// have clobbered rd, so aliasing changes nothing — but keep the exact
	// semantics by requiring the same operand shape either way.
	op := []riscv.Op{riscv.SH1ADD, riscv.SH2ADD, riscv.SH3ADD}[sl.Imm-1]
	repl := []riscv.Inst{{Op: op, Rd: ad.Rd, Rs1: sl.Rs1, Rs2: ad.Rs2}}
	return UpgradeSite{Kind: "shadd", Addrs: addrsOf(w), Replacement: repl}, true
}
