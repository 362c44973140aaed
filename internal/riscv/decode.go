package riscv

import "encoding/binary"

// ParcelLen inspects the first 16-bit parcel of an instruction stream and
// returns the encoded instruction length in bytes (2 or 4), or an error for
// the reserved >=48-bit encodings.
func ParcelLen(parcel uint16) (int, error) {
	if parcel&3 != 3 {
		return 2, nil
	}
	if parcel&0x1F == 0x1F {
		// bits [4:2] == 111 selects the reserved space for instructions wider
		// than 32 bits; the paper's SMILE auipc encoding deliberately lands a
		// mid-trampoline fetch here (§4.2, Fig. 7a).
		return 0, illegalWide(parcel)
	}
	return 4, nil
}

func signExtend(v uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Decode decodes the instruction at the start of b. It handles compressed
// (2-byte) parcels, standard 4-byte encodings, and the reserved wide-prefix
// and reserved-compressed encodings (returning ErrWidePrefix / ErrReserved /
// ErrIllegal as appropriate).
func Decode(b []byte) (Inst, error) {
	if len(b) < 2 {
		return Inst{}, ErrTruncated
	}
	parcel := binary.LittleEndian.Uint16(b)
	n, err := ParcelLen(parcel)
	if err != nil {
		return Inst{}, err
	}
	if n == 2 {
		return DecodeCompressed(parcel)
	}
	if len(b) < 4 {
		return Inst{}, ErrTruncated
	}
	return Decode32(binary.LittleEndian.Uint32(b))
}

// Dense decode tables: arrays indexed by funct3, or by funct3 and
// funct7/funct6, where BAD (the zero Op) marks an encoding outside the
// modelled subset. Lookups are one bounds-checked load, with no hashing.
var (
	branchByF3 = [8]Op{0: BEQ, 1: BNE, 4: BLT, 5: BGE, 6: BLTU, 7: BGEU}
	loadByF3   = [8]Op{0: LB, 1: LH, 2: LW, 3: LD, 4: LBU, 5: LHU, 6: LWU}
	storeByF3  = [8]Op{0: SB, 1: SH, 2: SW, 3: SD}
	// [funct3][funct7] of the OP major opcode.
	opByKey = [8][128]Op{
		0: {0x00: ADD, 0x20: SUB, 0x01: MUL},
		1: {0x00: SLL, 0x01: MULH},
		2: {0x00: SLT, 0x01: MULHSU, 0x10: SH1ADD},
		3: {0x00: SLTU, 0x01: MULHU},
		4: {0x00: XOR, 0x01: DIV, 0x10: SH2ADD, 0x20: XNOR},
		5: {0x00: SRL, 0x20: SRA, 0x01: DIVU},
		6: {0x00: OR, 0x01: REM, 0x10: SH3ADD, 0x20: ORN},
		7: {0x00: AND, 0x01: REMU, 0x20: ANDN},
	}
	// [funct3][funct7] of the OP-32 major opcode.
	op32ByKey = [8][128]Op{
		0: {0x00: ADDW, 0x20: SUBW, 0x01: MULW},
		1: {0x00: SLLW},
		4: {0x01: DIVW},
		5: {0x00: SRLW, 0x20: SRAW, 0x01: DIVUW},
		6: {0x01: REMW},
		7: {0x01: REMUW},
	}
	// [funct3 category][funct6] of the OP-V major opcode.
	vByKey = [8][64]Op{
		opIVV: {0x00: VADDVV},
		opIVX: {0x00: VADDVX, 0x17: VMVVX},
		opMVV: {0x25: VMULVV},
		opIVI: {0x17: VMVVI},
		opFVV: {0x00: VFADDVV, 0x24: VFMULVV, 0x2C: VFMACCVV, 0x10: VFMVFS, 0x01: VFREDUSUMVS},
		opFVF: {0x17: VFMVVF, 0x2C: VFMACCVF},
	}
)

// Decode32 decodes a full 32-bit instruction word.
func Decode32(w uint32) (Inst, error) {
	opcode := w & 0x7F
	rd := Reg(w >> 7 & 31)
	f3 := w >> 12 & 7
	rs1 := Reg(w >> 15 & 31)
	rs2 := Reg(w >> 20 & 31)
	f7 := w >> 25 & 0x7F
	immI := signExtend(uint64(w>>20), 12)
	immS := signExtend(uint64(w>>25<<5|w>>7&31), 12)
	immB := signExtend(uint64(w>>31<<12|(w>>7&1)<<11|(w>>25&0x3F)<<5|(w>>8&0xF)<<1), 13)
	immU := signExtend(uint64(w>>12), 20)
	immJ := signExtend(uint64(w>>31<<20|(w>>12&0xFF)<<12|(w>>20&1)<<11|(w>>21&0x3FF)<<1), 21)

	mk := func(op Op, rdv, r1, r2 Reg, imm int64) (Inst, error) {
		return Inst{Op: op, Rd: rdv, Rs1: r1, Rs2: r2, Imm: imm, Len: 4}, nil
	}
	bad := func() (Inst, error) {
		return Inst{}, illegal32(w)
	}

	switch opcode {
	case opLUI:
		return mk(LUI, rd, 0, 0, immU)
	case opAUIPC:
		return mk(AUIPC, rd, 0, 0, immU)
	case opJAL:
		return mk(JAL, rd, 0, 0, immJ)
	case opJALR:
		if f3 != 0 {
			return bad()
		}
		return mk(JALR, rd, rs1, 0, immI)
	case opBranch:
		op := branchByF3[f3]
		if op == BAD {
			return bad()
		}
		return mk(op, 0, rs1, rs2, immB)
	case opLoad:
		op := loadByF3[f3]
		if op == BAD {
			return bad()
		}
		return mk(op, rd, rs1, 0, immI)
	case opStore:
		op := storeByF3[f3]
		if op == BAD {
			return bad()
		}
		return mk(op, 0, rs1, rs2, immS)
	case opOpImm:
		switch f3 {
		case 0:
			return mk(ADDI, rd, rs1, 0, immI)
		case 1:
			if f7&^1 != 0 { // shamt6: bit 25 is part of shamt on RV64
				return bad()
			}
			return mk(SLLI, rd, rs1, 0, int64(w>>20&63))
		case 2:
			return mk(SLTI, rd, rs1, 0, immI)
		case 3:
			return mk(SLTIU, rd, rs1, 0, immI)
		case 4:
			return mk(XORI, rd, rs1, 0, immI)
		case 5:
			switch f7 &^ 1 {
			case 0x00:
				return mk(SRLI, rd, rs1, 0, int64(w>>20&63))
			case 0x20:
				return mk(SRAI, rd, rs1, 0, int64(w>>20&63))
			}
			return bad()
		case 6:
			return mk(ORI, rd, rs1, 0, immI)
		case 7:
			return mk(ANDI, rd, rs1, 0, immI)
		}
	case opOpImm32:
		switch f3 {
		case 0:
			return mk(ADDIW, rd, rs1, 0, immI)
		case 1:
			if f7 != 0 {
				return bad()
			}
			return mk(SLLIW, rd, rs1, 0, int64(w>>20&31))
		case 5:
			switch f7 {
			case 0x00:
				return mk(SRLIW, rd, rs1, 0, int64(w>>20&31))
			case 0x20:
				return mk(SRAIW, rd, rs1, 0, int64(w>>20&31))
			}
		}
		return bad()
	case opOp:
		op := opByKey[f3][f7]
		if op == BAD {
			return bad()
		}
		return mk(op, rd, rs1, rs2, 0)
	case opOp32:
		op := op32ByKey[f3][f7]
		if op == BAD {
			return bad()
		}
		return mk(op, rd, rs1, rs2, 0)
	case opMiscMem:
		return mk(FENCE, 0, 0, 0, 0)
	case opSystem:
		switch w >> 20 {
		case 0:
			return mk(ECALL, 0, 0, 0, 0)
		case 1:
			return mk(EBREAK, 0, 0, 0, 0)
		}
		return bad()
	case opLoadFP:
		switch f3 {
		case 2:
			return mk(FLW, rd, rs1, 0, immI)
		case 3:
			return mk(FLD, rd, rs1, 0, immI)
		case 6:
			return mk(VLE32V, rd, rs1, 0, 0)
		case 7:
			return mk(VLE64V, rd, rs1, 0, 0)
		}
		return bad()
	case opStoreFP:
		switch f3 {
		case 2:
			return mk(FSW, 0, rs1, rs2, immS)
		case 3:
			return mk(FSD, 0, rs1, rs2, immS)
		case 6:
			return mk(VSE32V, rd, rs1, 0, 0)
		case 7:
			return mk(VSE64V, rd, rs1, 0, 0)
		}
		return bad()
	case opMAdd:
		rs3 := Reg(w >> 27 & 31)
		switch f7 & 3 {
		case 0:
			return Inst{Op: FMADDS, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: rs3, Len: 4}, nil
		case 1:
			return Inst{Op: FMADDD, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: rs3, Len: 4}, nil
		}
		return bad()
	case opOpFP:
		switch f7 {
		case 0x00:
			return mk(FADDS, rd, rs1, rs2, 0)
		case 0x04:
			return mk(FSUBS, rd, rs1, rs2, 0)
		case 0x08:
			return mk(FMULS, rd, rs1, rs2, 0)
		case 0x0C:
			return mk(FDIVS, rd, rs1, rs2, 0)
		case 0x01:
			return mk(FADDD, rd, rs1, rs2, 0)
		case 0x05:
			return mk(FSUBD, rd, rs1, rs2, 0)
		case 0x09:
			return mk(FMULD, rd, rs1, rs2, 0)
		case 0x0D:
			return mk(FDIVD, rd, rs1, rs2, 0)
		case 0x10:
			if f3 == 0 {
				return mk(FSGNJS, rd, rs1, rs2, 0)
			}
		case 0x11:
			if f3 == 0 {
				return mk(FSGNJD, rd, rs1, rs2, 0)
			}
		case 0x68:
			if rs2 == 2 {
				return mk(FCVTSL, rd, rs1, 0, 0)
			}
		case 0x69:
			if rs2 == 2 {
				return mk(FCVTDL, rd, rs1, 0, 0)
			}
		case 0x61:
			if rs2 == 2 {
				return mk(FCVTLD, rd, rs1, 0, 0)
			}
		case 0x71:
			if rs2 == 0 && f3 == 0 {
				return mk(FMVXD, rd, rs1, 0, 0)
			}
		case 0x79:
			if rs2 == 0 && f3 == 0 {
				return mk(FMVDX, rd, rs1, 0, 0)
			}
		case 0x70:
			if rs2 == 0 && f3 == 0 {
				return mk(FMVXW, rd, rs1, 0, 0)
			}
		case 0x78:
			if rs2 == 0 && f3 == 0 {
				return mk(FMVWX, rd, rs1, 0, 0)
			}
		case 0x51:
			switch f3 {
			case 2:
				return mk(FEQD, rd, rs1, rs2, 0)
			case 1:
				return mk(FLTD, rd, rs1, rs2, 0)
			case 0:
				return mk(FLED, rd, rs1, rs2, 0)
			}
		}
		return bad()
	case opOpV:
		if f3 == opCFG {
			if w>>31 != 0 {
				return bad() // vsetvl/vsetivli not in the subset
			}
			return mk(VSETVLI, rd, rs1, 0, int64(w>>20&0x7FF))
		}
		funct6 := w >> 26 & 0x3F
		op := vByKey[f3][funct6]
		if op == BAD {
			return bad()
		}
		inst := Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Len: 4}
		if op == VMVVI {
			inst.Imm = signExtend(uint64(rs1), 5)
			inst.Rs1 = 0
		}
		return inst, nil
	}
	return bad()
}
