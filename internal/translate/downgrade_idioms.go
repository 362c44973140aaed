package translate

import (
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Downgrade idiom templates: block-level translations for the canonical
// vector loops compilers emit. The paper's translator works from QEMU TCG
// translation templates (§4.1); translating a whole strip-mined loop at
// once — rather than instruction by instruction through the simulated
// register file — is what keeps downgraded code near scalar-native speed,
// which the evaluation depends on (Chimera ≈ MELF on base cores, §6.1).
//
// Contract notes, mirroring what compiler-generated code guarantees: the
// vl bookkeeping temporaries and the loop's vector registers are dead after
// the idiom; the scalar replacement reproduces the loop's architectural
// exits (pointers advanced by the full trip count, counter at zero, the
// accumulator holding the sum).

// MatchVectorDowngrades finds vector-loop idioms and returns scalar
// replacement sites (the same shape as upgrade sites; CHBP treats both as
// sequence-level patches).
func MatchVectorDowngrades(d *dis.Result) []UpgradeSite {
	var sites []UpgradeSite
	var claimed map[uint64]bool
	for i, in := range d.Order {
		if in.Inst.Op != riscv.VSETVLI || claimed[in.Addr] {
			continue
		}
		w, ok := d.Window(i, 15)
		if !ok {
			continue
		}
		if s, ok := matchVectorDotLoop(w); ok {
			overlap := false
			for _, a := range s.Addrs {
				if claimed[a] {
					overlap = true
					break
				}
			}
			if !overlap {
				if claimed == nil {
					claimed = make(map[uint64]bool)
				}
				for _, a := range s.Addrs {
					claimed[a] = true
				}
				sites = append(sites, s)
			}
		}
	}
	return sites
}

// matchVectorDotLoop recognizes the strip-mined dot-product loop:
//
//	vsetvli t, zero, e{32,64}   ; vmv.v.i vAcc, 0
//	loop: vsetvli t, n, e       ; vle v0,(a) ; vle v1,(b)
//	      vfmacc.vv vAcc,v0,v1  ; slli t1,t,sh ; add a,a,t1 ; add b,b,t1
//	      sub n,n,t             ; bne n, zero, loop
//	vsetvli t, zero, e ; vfmv.v.f vSeed, fAcc
//	vfredusum.vs vR, vSeed, vAcc ; vfmv.f.s fAcc, vR
func matchVectorDotLoop(w []dis.Insn) (UpgradeSite, bool) {
	pre0, pre1 := w[0].Inst, w[1].Inst
	if pre0.Op != riscv.VSETVLI || pre0.Rs1 != riscv.Zero {
		return UpgradeSite{}, false
	}
	sew := riscv.SEWOf(pre0.Imm)
	if sew != riscv.E64 && sew != riscv.E32 {
		return UpgradeSite{}, false
	}
	t := pre0.Rd
	if pre1.Op != riscv.VMVVI || pre1.Imm != 0 {
		return UpgradeSite{}, false
	}
	vAcc := pre1.Rd

	vset, l0, l1, fma, sh, adA, adB, sub, br := w[2].Inst, w[3].Inst, w[4].Inst, w[5].Inst, w[6].Inst, w[7].Inst, w[8].Inst, w[9].Inst, w[10].Inst
	vle := riscv.VLE64V
	shift, step := int64(3), int64(8)
	if sew == riscv.E32 {
		vle, shift, step = riscv.VLE32V, 2, 4
	}
	if vset.Op != riscv.VSETVLI || vset.Rd != t || riscv.SEWOf(vset.Imm) != sew {
		return UpgradeSite{}, false
	}
	rN := vset.Rs1
	if l0.Op != vle || l1.Op != vle {
		return UpgradeSite{}, false
	}
	rA, rB := l0.Rs1, l1.Rs1
	if fma.Op != riscv.VFMACCVV || fma.Rd != vAcc || fma.Rs1 != l0.Rd || fma.Rs2 != l1.Rd {
		return UpgradeSite{}, false
	}
	if sh.Op != riscv.SLLI || sh.Rs1 != t || sh.Imm != shift {
		return UpgradeSite{}, false
	}
	t1 := sh.Rd
	if adA.Op != riscv.ADD || adA.Rd != rA || adA.Rs1 != rA || adA.Rs2 != t1 ||
		adB.Op != riscv.ADD || adB.Rd != rB || adB.Rs1 != rB || adB.Rs2 != t1 {
		return UpgradeSite{}, false
	}
	if sub.Op != riscv.SUB || sub.Rd != rN || sub.Rs1 != rN || sub.Rs2 != t {
		return UpgradeSite{}, false
	}
	if br.Op != riscv.BNE || br.Rs1 != rN || br.Rs2 != riscv.Zero ||
		w[10].Addr+uint64(br.Imm) != w[2].Addr {
		return UpgradeSite{}, false
	}

	post0, post1, red, mv := w[11].Inst, w[12].Inst, w[13].Inst, w[14].Inst
	if post0.Op != riscv.VSETVLI || post0.Rd != t || post0.Rs1 != riscv.Zero {
		return UpgradeSite{}, false
	}
	if post1.Op != riscv.VFMVVF {
		return UpgradeSite{}, false
	}
	fAcc := post1.Rs1
	if red.Op != riscv.VFREDUSUMVS || red.Rs1 != post1.Rd || red.Rs2 != vAcc {
		return UpgradeSite{}, false
	}
	if mv.Op != riscv.VFMVFS || mv.Rd != fAcc || mv.Rs2 != red.Rd {
		return UpgradeSite{}, false
	}

	// Scalar replacement: fAcc += sum(a[i]*b[i]); pointers and counter end
	// exactly where the vector loop left them; t/t1 get the values a full
	// final strip would have produced.
	fld, fmadd := riscv.FLD, riscv.FMADDD
	if sew == riscv.E32 {
		fld, fmadd = riscv.FLW, riscv.FMADDS
	}
	fx, fy := riscv.Reg(28), riscv.Reg(29) // ft8/ft9, saved below
	s := newSeq()
	withSaves(s, nil, []riscv.Reg{fx, fy}, func() {
		s.branch(riscv.BEQ, rN, riscv.Zero, "done")
		s.label("loop")
		s.load(fld, fx, rA, 0)
		s.load(fld, fy, rB, 0)
		s.emit(riscv.Inst{Op: fmadd, Rd: fAcc, Rs1: fx, Rs2: fy, Rs3: fAcc})
		s.imm(riscv.ADDI, rA, rA, step)
		s.imm(riscv.ADDI, rB, rB, step)
		s.imm(riscv.ADDI, rN, rN, -1)
		s.branch(riscv.BNE, rN, riscv.Zero, "loop")
		s.label("done")
		s.li(t, int64(riscv.VLenBytes)/step)
		s.imm(riscv.SLLI, t1, t, shift)
	})
	repl, err := s.finish()
	if err != nil {
		return UpgradeSite{}, false
	}
	kind := "vdot.e64.down"
	if sew == riscv.E32 {
		kind = "vdot.e32.down"
	}
	return UpgradeSite{Kind: kind, Addrs: addrsOf(w), Replacement: repl}, true
}
