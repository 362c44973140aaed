package riscv

import (
	"math/rand"
	"testing"
)

// The map-keyed ISA tables the dense arrays in encode.go and decode.go
// replaced, kept (renamed, contents unchanged) as the reference the arrays
// are checked against.

type f3f7 struct{ a, b uint32 }

var (
	mapBranchByF3 = map[uint32]Op{0: BEQ, 1: BNE, 4: BLT, 5: BGE, 6: BLTU, 7: BGEU}
	mapLoadByF3   = map[uint32]Op{0: LB, 1: LH, 2: LW, 3: LD, 4: LBU, 5: LHU, 6: LWU}
	mapStoreByF3  = map[uint32]Op{0: SB, 1: SH, 2: SW, 3: SD}
	mapOpByKey    = map[f3f7]Op{
		{0, 0x00}: ADD, {0, 0x20}: SUB, {1, 0x00}: SLL, {2, 0x00}: SLT,
		{3, 0x00}: SLTU, {4, 0x00}: XOR, {5, 0x00}: SRL, {5, 0x20}: SRA,
		{6, 0x00}: OR, {7, 0x00}: AND,
		{0, 0x01}: MUL, {1, 0x01}: MULH, {2, 0x01}: MULHSU, {3, 0x01}: MULHU,
		{4, 0x01}: DIV, {5, 0x01}: DIVU, {6, 0x01}: REM, {7, 0x01}: REMU,
		{2, 0x10}: SH1ADD, {4, 0x10}: SH2ADD, {6, 0x10}: SH3ADD,
		{7, 0x20}: ANDN, {6, 0x20}: ORN, {4, 0x20}: XNOR,
	}
	mapOp32ByKey = map[f3f7]Op{
		{0, 0x00}: ADDW, {0, 0x20}: SUBW, {1, 0x00}: SLLW,
		{5, 0x00}: SRLW, {5, 0x20}: SRAW,
		{0, 0x01}: MULW, {4, 0x01}: DIVW, {5, 0x01}: DIVUW,
		{6, 0x01}: REMW, {7, 0x01}: REMUW,
	}
	// keyed as {funct3 category, funct6}
	mapVByKey = map[f3f7]Op{
		{opIVV, 0x00}: VADDVV, {opIVX, 0x00}: VADDVX,
		{opMVV, 0x25}: VMULVV,
		{opIVI, 0x17}: VMVVI, {opIVX, 0x17}: VMVVX, {opFVF, 0x17}: VFMVVF,
		{opFVV, 0x00}: VFADDVV, {opFVV, 0x24}: VFMULVV,
		{opFVV, 0x2C}: VFMACCVV, {opFVF, 0x2C}: VFMACCVF,
		{opFVV, 0x10}: VFMVFS, {opFVV, 0x01}: VFREDUSUMVS,
	}
)

var mapEncTable = map[Op]encInfo{
	LUI:   {fmt: fmtU, opcode: opLUI},
	AUIPC: {fmt: fmtU, opcode: opAUIPC},
	JAL:   {fmt: fmtJ, opcode: opJAL},
	JALR:  {fmt: fmtI, opcode: opJALR, f3: 0},

	BEQ:  {fmt: fmtB, opcode: opBranch, f3: 0},
	BNE:  {fmt: fmtB, opcode: opBranch, f3: 1},
	BLT:  {fmt: fmtB, opcode: opBranch, f3: 4},
	BGE:  {fmt: fmtB, opcode: opBranch, f3: 5},
	BLTU: {fmt: fmtB, opcode: opBranch, f3: 6},
	BGEU: {fmt: fmtB, opcode: opBranch, f3: 7},

	LB:  {fmt: fmtI, opcode: opLoad, f3: 0},
	LH:  {fmt: fmtI, opcode: opLoad, f3: 1},
	LW:  {fmt: fmtI, opcode: opLoad, f3: 2},
	LD:  {fmt: fmtI, opcode: opLoad, f3: 3},
	LBU: {fmt: fmtI, opcode: opLoad, f3: 4},
	LHU: {fmt: fmtI, opcode: opLoad, f3: 5},
	LWU: {fmt: fmtI, opcode: opLoad, f3: 6},

	SB: {fmt: fmtS, opcode: opStore, f3: 0},
	SH: {fmt: fmtS, opcode: opStore, f3: 1},
	SW: {fmt: fmtS, opcode: opStore, f3: 2},
	SD: {fmt: fmtS, opcode: opStore, f3: 3},

	ADDI:  {fmt: fmtI, opcode: opOpImm, f3: 0},
	SLTI:  {fmt: fmtI, opcode: opOpImm, f3: 2},
	SLTIU: {fmt: fmtI, opcode: opOpImm, f3: 3},
	XORI:  {fmt: fmtI, opcode: opOpImm, f3: 4},
	ORI:   {fmt: fmtI, opcode: opOpImm, f3: 6},
	ANDI:  {fmt: fmtI, opcode: opOpImm, f3: 7},
	SLLI:  {fmt: fmtIShift, opcode: opOpImm, f3: 1, f7: 0x00},
	SRLI:  {fmt: fmtIShift, opcode: opOpImm, f3: 5, f7: 0x00},
	SRAI:  {fmt: fmtIShift, opcode: opOpImm, f3: 5, f7: 0x20},

	ADD:  {fmt: fmtR, opcode: opOp, f3: 0, f7: 0x00},
	SUB:  {fmt: fmtR, opcode: opOp, f3: 0, f7: 0x20},
	SLL:  {fmt: fmtR, opcode: opOp, f3: 1, f7: 0x00},
	SLT:  {fmt: fmtR, opcode: opOp, f3: 2, f7: 0x00},
	SLTU: {fmt: fmtR, opcode: opOp, f3: 3, f7: 0x00},
	XOR:  {fmt: fmtR, opcode: opOp, f3: 4, f7: 0x00},
	SRL:  {fmt: fmtR, opcode: opOp, f3: 5, f7: 0x00},
	SRA:  {fmt: fmtR, opcode: opOp, f3: 5, f7: 0x20},
	OR:   {fmt: fmtR, opcode: opOp, f3: 6, f7: 0x00},
	AND:  {fmt: fmtR, opcode: opOp, f3: 7, f7: 0x00},

	ADDIW: {fmt: fmtI, opcode: opOpImm32, f3: 0},
	SLLIW: {fmt: fmtIShiftW, opcode: opOpImm32, f3: 1, f7: 0x00},
	SRLIW: {fmt: fmtIShiftW, opcode: opOpImm32, f3: 5, f7: 0x00},
	SRAIW: {fmt: fmtIShiftW, opcode: opOpImm32, f3: 5, f7: 0x20},
	ADDW:  {fmt: fmtR, opcode: opOp32, f3: 0, f7: 0x00},
	SUBW:  {fmt: fmtR, opcode: opOp32, f3: 0, f7: 0x20},
	SLLW:  {fmt: fmtR, opcode: opOp32, f3: 1, f7: 0x00},
	SRLW:  {fmt: fmtR, opcode: opOp32, f3: 5, f7: 0x00},
	SRAW:  {fmt: fmtR, opcode: opOp32, f3: 5, f7: 0x20},

	FENCE:  {fmt: fmtFence, opcode: opMiscMem},
	ECALL:  {fmt: fmtSys, opcode: opSystem, f7: 0},
	EBREAK: {fmt: fmtSys, opcode: opSystem, f7: 1},

	MUL:    {fmt: fmtR, opcode: opOp, f3: 0, f7: 0x01},
	MULH:   {fmt: fmtR, opcode: opOp, f3: 1, f7: 0x01},
	MULHSU: {fmt: fmtR, opcode: opOp, f3: 2, f7: 0x01},
	MULHU:  {fmt: fmtR, opcode: opOp, f3: 3, f7: 0x01},
	DIV:    {fmt: fmtR, opcode: opOp, f3: 4, f7: 0x01},
	DIVU:   {fmt: fmtR, opcode: opOp, f3: 5, f7: 0x01},
	REM:    {fmt: fmtR, opcode: opOp, f3: 6, f7: 0x01},
	REMU:   {fmt: fmtR, opcode: opOp, f3: 7, f7: 0x01},
	MULW:   {fmt: fmtR, opcode: opOp32, f3: 0, f7: 0x01},
	DIVW:   {fmt: fmtR, opcode: opOp32, f3: 4, f7: 0x01},
	DIVUW:  {fmt: fmtR, opcode: opOp32, f3: 5, f7: 0x01},
	REMW:   {fmt: fmtR, opcode: opOp32, f3: 6, f7: 0x01},
	REMUW:  {fmt: fmtR, opcode: opOp32, f3: 7, f7: 0x01},

	SH1ADD: {fmt: fmtR, opcode: opOp, f3: 2, f7: 0x10},
	SH2ADD: {fmt: fmtR, opcode: opOp, f3: 4, f7: 0x10},
	SH3ADD: {fmt: fmtR, opcode: opOp, f3: 6, f7: 0x10},
	ANDN:   {fmt: fmtR, opcode: opOp, f3: 7, f7: 0x20},
	ORN:    {fmt: fmtR, opcode: opOp, f3: 6, f7: 0x20},
	XNOR:   {fmt: fmtR, opcode: opOp, f3: 4, f7: 0x20},

	FLW: {fmt: fmtI, opcode: opLoadFP, f3: 2},
	FLD: {fmt: fmtI, opcode: opLoadFP, f3: 3},
	FSW: {fmt: fmtS, opcode: opStoreFP, f3: 2},
	FSD: {fmt: fmtS, opcode: opStoreFP, f3: 3},

	FADDS:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x00},
	FSUBS:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x04},
	FMULS:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x08},
	FDIVS:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x0C},
	FADDD:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x01},
	FSUBD:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x05},
	FMULD:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x09},
	FDIVD:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x0D},
	FMADDS: {fmt: fmtR4, opcode: opMAdd, f3: 0, f7: 0x00},
	FMADDD: {fmt: fmtR4, opcode: opMAdd, f3: 0, f7: 0x01},
	FSGNJS: {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x10},
	FSGNJD: {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x11},
	FCVTSL: {fmt: fmtR, opcode: opOpFP, f3: 7, f7: 0x68}, // rs2=2 (L)
	FCVTDL: {fmt: fmtR, opcode: opOpFP, f3: 7, f7: 0x69}, // rs2=2 (L)
	FCVTLD: {fmt: fmtR, opcode: opOpFP, f3: 1, f7: 0x61}, // rs2=2 (L), rtz
	FMVXD:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x71},
	FMVDX:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x79},
	FMVXW:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x70},
	FMVWX:  {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x78},
	FEQD:   {fmt: fmtR, opcode: opOpFP, f3: 2, f7: 0x51},
	FLTD:   {fmt: fmtR, opcode: opOpFP, f3: 1, f7: 0x51},
	FLED:   {fmt: fmtR, opcode: opOpFP, f3: 0, f7: 0x51},

	VSETVLI: {fmt: fmtVSet, opcode: opOpV, f3: opCFG},
	VLE32V:  {fmt: fmtVLoad, opcode: opLoadFP, f3: 6},
	VLE64V:  {fmt: fmtVLoad, opcode: opLoadFP, f3: 7},
	VSE32V:  {fmt: fmtVStore, opcode: opStoreFP, f3: 6},
	VSE64V:  {fmt: fmtVStore, opcode: opStoreFP, f3: 7},

	// f7 = funct6<<1 | vm (vm=1: unmasked).
	VADDVV:      {fmt: fmtVArith, opcode: opOpV, vcat: opIVV, f7: 0x00<<1 | 1},
	VADDVX:      {fmt: fmtVArith, opcode: opOpV, vcat: opIVX, f7: 0x00<<1 | 1},
	VMULVV:      {fmt: fmtVArith, opcode: opOpV, vcat: opMVV, f7: 0x25<<1 | 1},
	VMVVI:       {fmt: fmtVArith, opcode: opOpV, vcat: opIVI, f7: 0x17<<1 | 1},
	VMVVX:       {fmt: fmtVArith, opcode: opOpV, vcat: opIVX, f7: 0x17<<1 | 1},
	VFADDVV:     {fmt: fmtVArith, opcode: opOpV, vcat: opFVV, f7: 0x00<<1 | 1},
	VFMULVV:     {fmt: fmtVArith, opcode: opOpV, vcat: opFVV, f7: 0x24<<1 | 1},
	VFMACCVV:    {fmt: fmtVArith, opcode: opOpV, vcat: opFVV, f7: 0x2C<<1 | 1},
	VFMACCVF:    {fmt: fmtVArith, opcode: opOpV, vcat: opFVF, f7: 0x2C<<1 | 1},
	VFMVVF:      {fmt: fmtVArith, opcode: opOpV, vcat: opFVF, f7: 0x17<<1 | 1},
	VFMVFS:      {fmt: fmtVArith, opcode: opOpV, vcat: opFVV, f7: 0x10<<1 | 1},
	VFREDUSUMVS: {fmt: fmtVArith, opcode: opOpV, vcat: opFVV, f7: 0x01<<1 | 1},
}

// TestDenseEncTableMatchesMap: for every Op the dense encTable holds
// exactly the map's entry, and an Op is present in one iff it is present
// in the other; Ops past numOps have no encoding.
func TestDenseEncTableMatchesMap(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		want, present := mapEncTable[op]
		got := encTable[op]
		if (got.fmt != fmtNone) != present {
			t.Fatalf("%v: dense presence %t, map presence %t", op, got.fmt != fmtNone, present)
		}
		if present && got != want {
			t.Fatalf("%v: dense entry %+v, map entry %+v", op, got, want)
		}
	}
	for _, op := range []Op{numOps, numOps + 1, 0xFFFF} {
		if _, err := Encode(Inst{Op: op}); err == nil {
			t.Fatalf("Encode of out-of-range op %d succeeded", op)
		}
	}
}

// mapDecodeOp is the table-driven part of Decode32 done with the maps: for
// a word whose major opcode is decoded by a table lookup it reports the Op
// the maps give (BAD if absent) and handled=true.
func mapDecodeOp(w uint32) (op Op, handled bool) {
	f3, f7 := w>>12&7, w>>25&0x7F
	switch w & 0x7F {
	case opBranch:
		return mapBranchByF3[f3], true
	case opLoad:
		return mapLoadByF3[f3], true
	case opStore:
		return mapStoreByF3[f3], true
	case opOp:
		return mapOpByKey[f3f7{f3, f7}], true
	case opOp32:
		return mapOp32ByKey[f3f7{f3, f7}], true
	case opOpV:
		if f3 == opCFG {
			return BAD, false
		}
		return mapVByKey[f3f7{f3, w >> 26 & 0x3F}], true
	}
	return BAD, false
}

// checkDecodeAgainstMaps decodes w and, when its major opcode is table
// driven, checks that Decode32 accepts it iff the maps do, as the same Op.
func checkDecodeAgainstMaps(t *testing.T, w uint32) {
	t.Helper()
	want, handled := mapDecodeOp(w)
	inst, err := Decode32(w)
	if !handled {
		return
	}
	switch {
	case want == BAD && err == nil:
		t.Fatalf("Decode32(%#08x) = %v, maps reject it", w, inst.Op)
	case want != BAD && err != nil:
		t.Fatalf("Decode32(%#08x): %v, maps give %v", w, err, want)
	case want != BAD && inst.Op != want:
		t.Fatalf("Decode32(%#08x) = %v, maps give %v", w, inst.Op, want)
	}
}

// TestDenseDecodeTablesMatchMaps runs Decode32 over every (major opcode,
// funct3, funct7) combination, with seeded random register and immediate
// bits, plus 1M seeded random words, against the map reference.
func TestDenseDecodeTablesMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for opcode := uint32(0); opcode < 128; opcode++ {
		for f3 := uint32(0); f3 < 8; f3++ {
			for f7 := uint32(0); f7 < 128; f7++ {
				rest := rng.Uint32() & (0x1F<<7 | 0x1F<<15 | 0x1F<<20)
				checkDecodeAgainstMaps(t, f7<<25|rest|f3<<12|opcode)
			}
		}
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		checkDecodeAgainstMaps(t, rng.Uint32())
	}
}
