package riscv

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func enc(t *testing.T, i Inst) uint32 {
	t.Helper()
	w, err := Encode(i)
	if err != nil {
		t.Fatalf("Encode(%v): %v", i, err)
	}
	return w
}

func roundTrip(t *testing.T, in Inst) Inst {
	t.Helper()
	w := enc(t, in)
	out, err := Decode32(w)
	if err != nil {
		t.Fatalf("Decode32(%#08x) of %v: %v", w, in, err)
	}
	return out
}

func TestEncodeKnownWords(t *testing.T) {
	// Golden encodings cross-checked against the RISC-V ISA manual examples.
	cases := []struct {
		inst Inst
		want uint32
	}{
		{Inst{Op: ADDI, Rd: A0, Rs1: A1, Imm: 1}, 0x00158513},
		{Inst{Op: LUI, Rd: A0, Imm: 0x12345}, 0x12345537},
		{Inst{Op: AUIPC, Rd: GP, Imm: 0}, 0x00000197},
		{Inst{Op: JALR, Rd: Zero, Rs1: RA, Imm: 0}, 0x00008067}, // ret
		{Inst{Op: ECALL}, 0x00000073},
		{Inst{Op: EBREAK}, 0x00100073},
		{Inst{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2}, 0x00C58533},
		{Inst{Op: SD, Rs1: SP, Rs2: RA, Imm: 8}, 0x00113423},
		{Inst{Op: JAL, Rd: Zero, Imm: 8}, 0x0080006F},
		{Inst{Op: BEQ, Rs1: A0, Rs2: Zero, Imm: 16}, 0x00050863},
		{Inst{Op: MUL, Rd: T0, Rs1: T1, Rs2: T2}, 0x027302B3},
		{Inst{Op: SH1ADD, Rd: A0, Rs1: A1, Rs2: A2}, 0x20C5A533},
	}
	for _, c := range cases {
		if got := enc(t, c.inst); got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.inst, got, c.want)
		}
	}
}

func TestRoundTripAllOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for op := Op(1); op < numOps; op++ {
		if encTable[op].fmt == fmtNone {
			t.Fatalf("op %v missing from encTable", op)
		}
		for trial := 0; trial < 50; trial++ {
			in := Inst{
				Op:  op,
				Rd:  Reg(rng.Intn(32)),
				Rs1: Reg(rng.Intn(32)),
				Rs2: Reg(rng.Intn(32)),
				Rs3: Reg(rng.Intn(32)),
				Len: 4,
			}
			switch encTable[op].fmt {
			case fmtI, fmtS:
				in.Imm = int64(rng.Intn(4096) - 2048)
			case fmtB:
				in.Imm = int64(rng.Intn(2048)-1024) * 2
			case fmtU:
				in.Imm = int64(rng.Intn(1 << 20))
				if in.Imm >= 1<<19 {
					in.Imm -= 1 << 20 // signed upper immediate
				}
			case fmtJ:
				in.Imm = int64(rng.Intn(1<<19)-1<<18) * 2
			case fmtIShift:
				in.Imm = int64(rng.Intn(64))
			case fmtIShiftW:
				in.Imm = int64(rng.Intn(32))
			case fmtVSet:
				in.Imm = VType(SEW(rng.Intn(4)))
			case fmtSys, fmtFence:
				in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
			}
			if op == VMVVI {
				in.Imm = int64(rng.Intn(32) - 16)
			}
			out := roundTrip(t, in)
			// Normalize fields the encoding does not carry.
			norm := in
			switch encTable[op].fmt {
			case fmtR:
				norm.Rs3 = 0
				norm.Imm = 0
				switch op {
				case FCVTSL, FCVTDL, FCVTLD, FMVXD, FMVDX, FMVXW, FMVWX:
					norm.Rs2 = 0
				}
			case fmtR4:
				norm.Imm = 0
			case fmtI, fmtIShift, fmtIShiftW, fmtU:
				norm.Rs2, norm.Rs3 = 0, 0
				if encTable[op].fmt == fmtU {
					norm.Rs1 = 0
				}
			case fmtS, fmtB:
				norm.Rd, norm.Rs3 = 0, 0
				if encTable[op].fmt == fmtS {
				} else {
					norm.Rd = 0
				}
			case fmtJ:
				norm.Rs1, norm.Rs2, norm.Rs3 = 0, 0, 0
			case fmtSys, fmtFence:
				norm = Inst{Op: op, Len: 4}
			case fmtVSet:
				norm.Rs2, norm.Rs3 = 0, 0
			case fmtVLoad, fmtVStore:
				norm.Rs2, norm.Rs3, norm.Imm = 0, 0, 0
			case fmtVArith:
				norm.Rs3 = 0
				switch op {
				case VMVVI:
					norm.Rs1, norm.Rs2 = 0, 0
				case VMVVX, VFMVVF:
					norm.Rs2 = 0
				case VFMVFS:
					norm.Rs1 = 0
				default:
					norm.Imm = 0
				}
			}
			if out != norm {
				t.Fatalf("op %s: round trip %+v -> %+v (normalized want %+v)",
					op.Mnemonic(), in, out, norm)
			}
		}
	}
}

func TestImmediateRangeErrors(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 2048},
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: -2049},
		{Op: SLLI, Rd: A0, Rs1: A0, Imm: 64},
		{Op: SLLIW, Rd: A0, Rs1: A0, Imm: 32},
		{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 3},    // misaligned
		{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 4096}, // out of range
		{Op: JAL, Rd: RA, Imm: 1 << 20},        // out of range
		{Op: SD, Rs1: SP, Rs2: A0, Imm: 4096},  // out of range
		{Op: VMVVI, Rd: 1, Imm: 16},            // 5-bit simm
	}
	for _, c := range cases {
		if _, err := Encode(c); !errors.Is(err, ErrImmRange) {
			t.Errorf("Encode(%v) err = %v, want ErrImmRange", c, err)
		}
	}
}

func TestDecodeRejectsJunk(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(nil) err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]byte{0x13}); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(1 byte) err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]byte{0x03, 0x00}); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(half a 32-bit word) err = %v, want ErrTruncated", err)
	}
	if _, err := Decode32(0xFFFFFFFF); err == nil {
		t.Error("Decode32(all ones) should fail")
	}
}

func TestWidePrefixIsIllegal(t *testing.T) {
	// Any parcel whose low five bits are all ones belongs to the reserved
	// >=48-bit space (the paper's SMILE auipc upper-parcel trick, Fig. 7a).
	for hi := 0; hi < 1<<11; hi += 37 {
		parcel := uint16(hi)<<5 | 0x1F
		if _, err := ParcelLen(parcel); !errors.Is(err, ErrWidePrefix) {
			t.Fatalf("ParcelLen(%#04x) err = %v, want ErrWidePrefix", parcel, err)
		}
		buf := make([]byte, 4)
		binary.LittleEndian.PutUint16(buf, parcel)
		if _, err := Decode(buf); !errors.Is(err, ErrWidePrefix) {
			t.Fatalf("Decode(%#04x...) err = %v, want ErrWidePrefix", parcel, err)
		}
	}
}

func TestQuickEncodeDecodeIdempotent(t *testing.T) {
	// Property: any 32-bit word that decodes successfully re-encodes to the
	// canonical word for the decoded instruction, and that canonical word
	// decodes to the same instruction (decode-encode-decode fixpoint).
	f := func(w uint32) bool {
		w = w&^0x7F | 0x33 // force OP major opcode to hit a dense space
		in, err := Decode32(w)
		if err != nil {
			return true // illegal words are fine
		}
		canon, err := Encode(in)
		if err != nil {
			t.Logf("decoded %v but cannot re-encode: %v", in, err)
			return false
		}
		again, err := Decode32(canon)
		if err != nil || again != in {
			t.Logf("fixpoint failed: %v -> %#x -> %v (%v)", in, canon, again, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
