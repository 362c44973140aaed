package dis_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// refResult is the map-based disassembly the dense Result replaced, kept
// as the reference the dense one must equal.
type refResult struct {
	Insns         map[uint64]riscv.Inst
	Order         []uint64
	IndirectJumps []uint64
	Calls         []uint64
	Undecodable   map[uint64]error
	Roots         []uint64
}

func (r *refResult) At(addr uint64) (riscv.Inst, bool) {
	in, ok := r.Insns[addr]
	return in, ok
}

func (r *refResult) Next(addr uint64) (uint64, bool) {
	in, ok := r.Insns[addr]
	if !ok {
		return 0, false
	}
	next := addr + uint64(in.Len)
	_, ok = r.Insns[next]
	return next, ok
}

// refDisassemble is the recursive descent as it was before the dense
// layout: a map per address, then a sort of its keys.
func refDisassemble(img *obj.Image, extra []uint64) *refResult {
	res := &refResult{
		Insns:       make(map[uint64]riscv.Inst),
		Undecodable: make(map[uint64]error),
	}
	work := []uint64{img.Entry}
	for _, sym := range img.FuncSymbols() {
		work = append(work, sym.Addr)
	}
	seen := make(map[uint64]bool, len(work)+len(extra))
	for _, a := range work {
		seen[a] = true
	}
	for _, a := range extra {
		if seen[a] {
			continue
		}
		if sec := img.SectionAt(a); sec == nil || sec.Perm&obj.PermX == 0 {
			continue
		}
		seen[a] = true
		work = append(work, a)
	}
	res.Roots = append([]uint64(nil), work...)
	sort.Slice(res.Roots, func(i, j int) bool { return res.Roots[i] < res.Roots[j] })

	var buf [4]byte
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if _, seen := res.Insns[pc]; seen {
				break
			}
			if _, bad := res.Undecodable[pc]; bad {
				break
			}
			sec := img.SectionAt(pc)
			if sec == nil || sec.Perm&obj.PermX == 0 {
				break
			}
			n := copy(buf[:], sec.Data[pc-sec.Addr:])
			inst, err := riscv.Decode(buf[:n])
			if err != nil {
				if !errors.Is(err, riscv.ErrTruncated) {
					res.Undecodable[pc] = err
				}
				break
			}
			res.Insns[pc] = inst

			switch {
			case inst.Op == riscv.JAL:
				target := pc + uint64(inst.Imm)
				work = append(work, target)
				if inst.Rd == riscv.RA {
					res.Calls = append(res.Calls, pc)
					pc += uint64(inst.Len)
					continue
				}
				pc = target
				continue
			case inst.Op == riscv.JALR:
				if inst.Rd == riscv.RA {
					res.Calls = append(res.Calls, pc)
					res.IndirectJumps = append(res.IndirectJumps, pc)
					pc += uint64(inst.Len)
					continue
				}
				res.IndirectJumps = append(res.IndirectJumps, pc)
			case inst.IsBranch():
				work = append(work, pc+uint64(inst.Imm))
				pc += uint64(inst.Len)
				continue
			default:
				pc += uint64(inst.Len)
				continue
			}
			break
		}
	}

	res.Order = make([]uint64, 0, len(res.Insns))
	for a := range res.Insns {
		res.Order = append(res.Order, a)
	}
	sort.Slice(res.Order, func(i, j int) bool { return res.Order[i] < res.Order[j] })
	sort.Slice(res.IndirectJumps, func(i, j int) bool { return res.IndirectJumps[i] < res.IndirectJumps[j] })
	sort.Slice(res.Calls, func(i, j int) bool { return res.Calls[i] < res.Calls[j] })
	return res
}

func sameAddrs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeAddrs is every address the index could be asked about: each byte of
// every section, one past each section, and the boundaries of the address
// space.
func probeAddrs(img *obj.Image) []uint64 {
	out := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, img.Entry}
	for _, s := range img.Sections {
		for a := s.Addr; a < s.End(); a++ {
			out = append(out, a)
		}
		out = append(out, s.End(), s.End()+1, s.Addr-1, s.Addr-2)
	}
	return out
}

// diffReference reports the first way got differs from want, or "".
func diffReference(img *obj.Image, got *dis.Result, want *refResult) string {
	if len(got.Order) != len(want.Order) {
		return fmt.Sprintf("%d instructions, reference %d", len(got.Order), len(want.Order))
	}
	for i, in := range got.Order {
		if a := want.Order[i]; in.Addr != a || in.Inst != want.Insns[a] {
			return fmt.Sprintf("Order[%d] = %#x %v, reference %#x %v", i, in.Addr, in.Inst, a, want.Insns[a])
		}
	}
	switch {
	case !sameAddrs(got.Calls, want.Calls):
		return fmt.Sprintf("Calls %#x, reference %#x", got.Calls, want.Calls)
	case !sameAddrs(got.IndirectJumps, want.IndirectJumps):
		return fmt.Sprintf("IndirectJumps %#x, reference %#x", got.IndirectJumps, want.IndirectJumps)
	case !sameAddrs(got.Roots, want.Roots):
		return fmt.Sprintf("Roots %#x, reference %#x", got.Roots, want.Roots)
	case len(got.Undecodable) != len(want.Undecodable):
		return fmt.Sprintf("%d undecodable, reference %d", len(got.Undecodable), len(want.Undecodable))
	}
	for a, err := range want.Undecodable {
		if g, ok := got.Undecodable[a]; !ok || g.Error() != err.Error() {
			return fmt.Sprintf("Undecodable[%#x] = %v, reference %v", a, g, err)
		}
	}
	for _, a := range probeAddrs(img) {
		gi, gok := got.At(a)
		wi, wok := want.At(a)
		if gok != wok || gi != wi {
			return fmt.Sprintf("At(%#x) = %v %t, reference %v %t", a, gi, gok, wi, wok)
		}
		if i, ok := got.Index(a); ok != wok || ok && got.Order[i].Addr != a {
			return fmt.Sprintf("Index(%#x) = %d %t, reference has it: %t", a, i, ok, wok)
		}
		gn, gok := got.Next(a)
		wn, wok := want.Next(a)
		if gok != wok || gn != wn {
			return fmt.Sprintf("Next(%#x) = %#x %t, reference %#x %t", a, gn, gok, wn, wok)
		}
	}
	// Windows of the idiom templates' lengths, against following At.
	for i, in := range got.Order {
		for _, n := range []int{2, 7, 15} {
			w, ok := got.Window(i, n)
			chain, cok := refChain(want, in.Addr, n)
			if ok != cok {
				return fmt.Sprintf("Window(%d, %d) ok=%t, reference %t", i, n, ok, cok)
			}
			for k := range w {
				if w[k].Addr != chain[k] || w[k].Inst != want.Insns[chain[k]] {
					return fmt.Sprintf("Window(%d, %d)[%d] = %#x, reference %#x", i, n, k, w[k].Addr, chain[k])
				}
			}
		}
	}
	return ""
}

// refChain follows n contiguous instructions from addr in the reference.
func refChain(r *refResult, addr uint64, n int) ([]uint64, bool) {
	var out []uint64
	for len(out) < n {
		in, ok := r.At(addr)
		if !ok {
			return nil, false
		}
		out = append(out, addr)
		addr += uint64(in.Len)
	}
	return out, true
}

// checkReference compares the dense disassembly with extra roots, and the
// same roots added in two Extend steps, against the reference.
func checkReference(t *testing.T, name string, img *obj.Image, extra []uint64) {
	t.Helper()
	want := refDisassemble(img, extra)
	if d := diffReference(img, dis.DisassembleWithRoots(img, extra), want); d != "" {
		t.Errorf("%s: DisassembleWithRoots: %s", name, d)
	}
	half := len(extra) / 2
	inc := dis.Disassemble(img).Extend(extra[:half]).Extend(extra[half:])
	if d := diffReference(img, inc, want); d != "" {
		t.Errorf("%s: incremental Extend: %s", name, d)
	}
}

// TestDenseMatchesReference holds the dense disassembly to the map-based
// reference over the SPEC-shaped suite (code scaled down 32x), seed 1 of
// every corpus family, and, for each, the resolver's extra-root path (its
// High-confidence targets as roots, in one call and incrementally) and the
// resolver's own fixpoint disassembly.
func TestDenseMatchesReference(t *testing.T) {
	var imgs []*obj.Image
	for _, c := range workload.SpecSuite() {
		p := c.Params
		p.CodeKB = max(32, p.CodeKB/32)
		img, err := workload.BuildSpec(p, true)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	for _, f := range corpus.Families() {
		prog, err := corpus.Build(f.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, prog.Image)
	}
	for _, img := range imgs {
		checkReference(t, img.Name, img, nil)
		ts := resolve.Resolve(img)
		roots := ts.Roots()
		checkReference(t, img.Name+"/resolved-roots", img, roots)
		// Feed the roots in reverse too: Extend must not depend on order.
		rev := append([]uint64(nil), roots...)
		sort.Slice(rev, func(i, j int) bool { return rev[i] > rev[j] })
		checkReference(t, img.Name+"/resolved-roots-reversed", img, rev)
		// The resolver decodes once and extends: its plain disassembly and
		// its completed one (whose roots are everything it seeded) must
		// equal fresh reference descents.
		if d := diffReference(img, ts.Plain, refDisassemble(img, nil)); d != "" {
			t.Errorf("%s: resolver's plain disassembly: %s", img.Name, d)
		}
		if d := diffReference(img, ts.Dis, refDisassemble(img, ts.Dis.Roots)); d != "" {
			t.Errorf("%s: resolver's extended disassembly: %s", img.Name, d)
		}
	}
}

// fuzzImage builds an image around fuzz bytes: one executable section,
// optionally an overlapping second executable section and a read-only data
// section, an entry point and a function symbol at fuzz-chosen offsets
// (odd offsets included).
func fuzzImage(code []byte, entry, sym uint16, layout uint8) *obj.Image {
	const base = 0x10000
	img := &obj.Image{Name: "fuzz", ISA: riscv.RV64GCV}
	img.Sections = append(img.Sections, &obj.Section{Name: ".text", Addr: base, Data: code, Perm: obj.PermRX})
	if layout&1 != 0 && len(code) > 8 {
		// A second executable view of the middle of the same bytes, listed
		// first so lookups must pick it over .text, which holds code on
		// both sides of it.
		lo, hi := len(code)/4, len(code)/2
		img.Sections = append([]*obj.Section{{Name: ".text2", Addr: base + uint64(lo), Data: code[lo:hi], Perm: obj.PermRX}}, img.Sections...)
	}
	if layout&2 != 0 {
		img.Sections = append(img.Sections, &obj.Section{Name: ".rodata", Addr: base - 0x100, Data: make([]byte, 0x80), Perm: obj.PermR})
	}
	n := uint64(len(code)) + 8
	img.Entry = base + uint64(entry)%n
	img.Symbols = []obj.Symbol{{Name: "f", Addr: base + uint64(sym)%n, Kind: obj.SymFunc}}
	if layout&4 != 0 {
		img.Symbols = append(img.Symbols, obj.Symbol{Name: "dup", Addr: img.Entry, Kind: obj.SymFunc})
	}
	return img
}

// fuzzRoots decodes extra roots from fuzz bytes as 16-bit offsets from the
// text base, some of which fall outside every section.
func fuzzRoots(b []byte) []uint64 {
	var out []uint64
	for len(b) >= 2 {
		out = append(out, 0x10000-0x40+uint64(binary.LittleEndian.Uint16(b)))
		b = b[2:]
	}
	return out
}

func asmBytes(f *testing.F, compress bool) []byte {
	f.Helper()
	b := asm.NewBuilder(riscv.RV64GCV)
	b.Compress = compress
	b.Func("main")
	b.Li(riscv.A0, 10)
	b.Label("loop")
	b.Op(riscv.ADD, riscv.A1, riscv.A1, riscv.A0)
	b.Imm(riscv.ADDI, riscv.A0, riscv.A0, -1)
	b.Bne(riscv.A0, riscv.Zero, "loop")
	b.Call("leaf")
	b.Raw(0x0000001F)
	b.Func("leaf")
	b.Imm(riscv.SLLI, riscv.A2, riscv.A0, 3)
	b.Op(riscv.ADD, riscv.A2, riscv.A2, riscv.A1)
	b.Ret()
	img, err := b.Build("seed", "main")
	if err != nil {
		f.Fatal(err)
	}
	return img.Section(".text").Data
}

// FuzzDisassemble feeds random executable bytes, compressed and not, with
// random extra roots through the dense disassembler and the reference: no
// panic, and the results equal, in one call and incrementally.
func FuzzDisassemble(f *testing.F) {
	for _, compress := range []bool{false, true} {
		code := asmBytes(f, compress)
		f.Add(code, uint16(0), uint16(4), uint8(0), []byte{0x40, 0, 0x46, 0})
		f.Add(code, uint16(1), uint16(3), uint8(7), []byte{0x41, 0, 0x50, 0, 0xff, 0xff})
	}
	f.Add([]byte{0x01, 0x00, 0x13, 0x05, 0x10, 0x00}, uint16(0), uint16(1), uint8(1), []byte(nil))
	f.Fuzz(func(t *testing.T, code []byte, entry, sym uint16, layout uint8, roots []byte) {
		if len(code) > 1<<12 {
			return
		}
		img := fuzzImage(code, entry, sym, layout)
		extra := fuzzRoots(roots)
		want := refDisassemble(img, extra)
		if d := diffReference(img, dis.DisassembleWithRoots(img, extra), want); d != "" {
			t.Fatalf("DisassembleWithRoots: %s", d)
		}
		half := len(extra) / 2
		if d := diffReference(img, dis.Disassemble(img).Extend(extra[:half]).Extend(extra[half:]), want); d != "" {
			t.Fatalf("incremental Extend: %s", d)
		}
	})
}
