// Package dis recursively disassembles executable images. It plays the role
// of IDA Pro in the paper's pipeline (§4.1): recursion from the entry point
// and function symbols guarantees every *recognized* instruction is real,
// but completeness is explicitly not guaranteed — code reachable only
// through indirect jumps may stay unrecognized, and Chimera's runtime
// rewrites such instructions when they fault at run time (§4.3).
//
// A Result is the one decoded program every rewrite pass reads. The
// recognized instructions form a single dense slice in address order
// (Result.Order; there is no per-address map), and a per-halfword index
// over each executable section turns At, Next and Index into array reads.
// Matchers take zero-allocation windows of consecutive instructions
// (Window). The resolver grows its disassembly root by root with Extend
// instead of decoding the image again.
package dis

import (
	"errors"
	"maps"
	"math/bits"
	"slices"
	"sort"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Insn is one recognized instruction.
type Insn struct {
	Addr uint64
	Inst riscv.Inst
}

// End returns the address one past the instruction.
func (in Insn) End() uint64 { return in.Addr + uint64(in.Inst.Len) }

// Result is the disassembly of an image.
type Result struct {
	// Order lists every recognized instruction in ascending address order.
	// Positions in it are what Index returns and Window takes.
	Order []Insn
	// IndirectJumps lists the addresses of register-indirect jumps (jalr)
	// whose targets cannot be resolved statically, ascending.
	IndirectJumps []uint64
	// Calls lists the addresses of direct calls (jal/jalr with rd=ra),
	// ascending.
	Calls []uint64
	// Undecodable maps addresses where decoding failed on a recursive path
	// to the error (reserved encodings, truncation). Nil when there are
	// none.
	Undecodable map[uint64]error
	// Roots are the recursion roots: the entry point, every function
	// symbol and every accepted extra root, ascending. CFG recovery treats
	// them as block leaders.
	Roots []uint64

	// spans mirrors the image's sections in image order, so a lookup picks
	// the same section obj.Image.SectionAt does.
	spans []span
}

// span is the index over one section: one slot per halfword, holding the
// position in Order of the instruction there plus one, slotBad for an
// undecodable address, or 0 for nothing recognized. Slots live in pages,
// allocated when a path first reaches them, so the index costs memory in
// proportion to the code reached, not to the section (which may be mostly
// padding or data). Slot k of page i of even covers offset i*pageSize+2k;
// odd covers the odd offsets, which only adversarial code decodes at.
type span struct {
	start     uint64
	data      []byte
	exec      bool
	even, odd []*page
}

const (
	pageShift = 14
	pageSize  = 1 << pageShift // section bytes per index page
	slotBad   = -1
)

type page [pageSize / 2]int32

func (s *span) contains(addr uint64) bool {
	return addr >= s.start && addr < s.start+uint64(len(s.data))
}

// slot returns the index slot for section offset off, allocating its page
// when grow is set; without grow, nil means nothing is recorded there.
func (s *span) slot(off uint64, grow bool) *int32 {
	pages := &s.even
	if off&1 != 0 {
		pages = &s.odd
	}
	if *pages == nil {
		if !grow {
			return nil
		}
		*pages = make([]*page, (len(s.data)+pageSize-1)>>pageShift)
	}
	p := (*pages)[off>>pageShift]
	if p == nil {
		if !grow {
			return nil
		}
		p = new(page)
		(*pages)[off>>pageShift] = p
	}
	return &p[off&(pageSize-1)>>1]
}

// clonePages deep-copies a page table.
func clonePages(ps []*page) []*page {
	out := slices.Clone(ps)
	for i, p := range out {
		if p != nil {
			cp := *p
			out[i] = &cp
		}
	}
	return out
}

// find returns the first section containing addr, as SectionAt does.
func (r *Result) find(addr uint64) *span {
	for i := range r.spans {
		if r.spans[i].contains(addr) {
			return &r.spans[i]
		}
	}
	return nil
}

// Index returns the position in Order of the instruction at addr.
func (r *Result) Index(addr uint64) (int, bool) {
	sp := r.find(addr)
	if sp == nil {
		return 0, false
	}
	if p := sp.slot(addr-sp.start, false); p != nil && *p > 0 {
		return int(*p - 1), true
	}
	return 0, false
}

// At returns the instruction at addr.
func (r *Result) At(addr uint64) (riscv.Inst, bool) {
	if i, ok := r.Index(addr); ok {
		return r.Order[i].Inst, true
	}
	return riscv.Inst{}, false
}

// Next returns the address of the recognized instruction following addr.
func (r *Result) Next(addr uint64) (uint64, bool) {
	i, ok := r.Index(addr)
	if !ok {
		return 0, false
	}
	next := r.Order[i].End()
	_, ok = r.Index(next)
	return next, ok
}

// Window returns the n instructions that execute straight-line from the
// one at position i, each starting where the previous one ends. In the
// common case this is Order[i:i+n] itself and allocates nothing; only
// overlapping decodes (adversarial code) make a successful window a
// gathered copy.
func (r *Result) Window(i, n int) ([]Insn, bool) {
	if i < 0 || n <= 0 || i+n > len(r.Order) {
		return nil, false
	}
	w := r.Order[i : i+n]
	for k := 1; k < n; k++ {
		if w[k].Addr != w[k-1].End() {
			return r.gather(i, n)
		}
	}
	return w, true
}

// gather follows Index from Order[i] for n instructions and, when all are
// there, copies them out.
func (r *Result) gather(i, n int) ([]Insn, bool) {
	at := i
	for m := 1; m < n; m++ {
		j, ok := r.Index(r.Order[at].End())
		if !ok {
			return nil, false
		}
		at = j
	}
	w := make([]Insn, n)
	w[0] = r.Order[i]
	for m := 1; m < n; m++ {
		j, _ := r.Index(w[m-1].End())
		w[m] = r.Order[j]
	}
	return w, true
}

// Disassemble recursively disassembles the image starting from the entry
// point and every function symbol.
func Disassemble(img *obj.Image) *Result {
	return DisassembleWithRoots(img, nil)
}

// DisassembleWithRoots disassembles like Disassemble but seeds the
// recursion with extra roots on top of the entry point and function
// symbols. Extra roots outside executable sections are ignored;
// duplicates are deduplicated.
func DisassembleWithRoots(img *obj.Image, extra []uint64) *Result {
	r := &Result{spans: make([]span, len(img.Sections))}
	for i, s := range img.Sections {
		r.spans[i] = span{start: s.Addr, data: s.Data, exec: s.Perm&obj.PermX != 0}
	}
	work := []uint64{img.Entry}
	for _, sym := range img.FuncSymbols() {
		work = append(work, sym.Addr)
	}
	r.Roots = append([]uint64(nil), work...)
	slices.Sort(r.Roots)
	b := &builder{r: r}
	b.descend(work)
	if more := r.newRoots(extra); len(more) > 0 {
		r.Roots = mergeRoots(r.Roots, more)
		b.descend(more)
	}
	b.finish()
	return r
}

// Extend returns the disassembly with extra roots added to r's. Recursive
// descent is a closure over its roots, so the result equals what
// DisassembleWithRoots returns for the image with r's extra roots and
// these, but only code reachable from the new roots is decoded. r is left
// unchanged, and is itself the result when no extra root is new.
func (r *Result) Extend(extra []uint64) *Result {
	more := r.newRoots(extra)
	if len(more) == 0 {
		return r
	}
	nr := &Result{Roots: mergeRoots(r.Roots, more), spans: slices.Clone(r.spans)}
	for i := range nr.spans {
		sp := &nr.spans[i]
		sp.even, sp.odd = clonePages(sp.even), clonePages(sp.odd)
	}
	if r.Undecodable != nil {
		nr.Undecodable = maps.Clone(r.Undecodable)
	}
	// The copied slots hold positions in r.Order, which the new descent
	// reads as its first discoveries.
	b := &builder{r: nr, base: r.Order}
	b.descend(more)
	b.finish()
	return nr
}

// newRoots returns the extra roots DisassembleWithRoots accepts on top of
// r's: those in executable sections that are not roots yet, sorted and
// deduplicated.
func (r *Result) newRoots(extra []uint64) []uint64 {
	var out []uint64
	for _, a := range extra {
		if sp := r.find(a); sp == nil || !sp.exec {
			continue
		}
		if _, root := slices.BinarySearch(r.Roots, a); !root {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func mergeRoots(roots, more []uint64) []uint64 {
	out := append(slices.Clip(roots), more...)
	slices.Sort(out)
	return out
}

// builder runs recursive descent into a Result's index. A slot holds an
// instruction's discovery position plus one: positions below len(base)
// name base (the laid-out instructions an Extend starts from), later ones
// the instructions decoded since, kept in chunks that double in size so
// the discoveries are never copied as they grow. finish lays everything
// out in address order.
type builder struct {
	r      *Result
	base   []Insn
	chunks [][]Insn
	n      int // instructions in chunks
}

const firstChunk = 256

// chunkOf locates the j'th decoded instruction: chunk c holds
// firstChunk<<c of them, starting at firstChunk*(2^c-1).
func chunkOf(j int) (c, off int) {
	c = bits.Len(uint(j/firstChunk+1)) - 1
	return c, j - firstChunk*(1<<c-1)
}

// add records a decoded instruction and returns its slot value.
func (b *builder) add(in Insn) int32 {
	c, off := chunkOf(b.n)
	if c == len(b.chunks) {
		b.chunks = append(b.chunks, make([]Insn, firstChunk<<c))
	}
	b.chunks[c][off] = in
	b.n++
	return int32(len(b.base) + b.n)
}

// at returns the instruction at discovery position pos.
func (b *builder) at(pos int) Insn {
	if pos < len(b.base) {
		return b.base[pos]
	}
	c, off := chunkOf(pos - len(b.base))
	return b.chunks[c][off]
}

// descend follows every path from the work list until it reaches code
// already seen, leaves executable memory, or fails to decode.
func (b *builder) descend(work []uint64) {
	r := b.r
	var buf [4]byte
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			sp := r.find(pc)
			if sp == nil || !sp.exec {
				break
			}
			off := pc - sp.start
			slot := sp.slot(off, true)
			if *slot != 0 {
				break // recognized already, or known undecodable
			}
			n := copy(buf[:], sp.data[off:])
			inst, err := riscv.Decode(buf[:n])
			if err != nil {
				// Reserved/illegal encodings terminate the path; they are
				// recorded so rewriters can report coverage.
				if !errors.Is(err, riscv.ErrTruncated) {
					*slot = slotBad
					if r.Undecodable == nil {
						r.Undecodable = make(map[uint64]error)
					}
					r.Undecodable[pc] = err
				}
				break
			}
			*slot = b.add(Insn{Addr: pc, Inst: inst})

			switch {
			case inst.Op == riscv.JAL:
				target := pc + uint64(inst.Imm)
				work = append(work, target)
				if inst.Rd == riscv.RA {
					// A call returns: continue at the fallthrough.
					pc += uint64(inst.Len)
					continue
				}
				pc = target
				continue
			case inst.Op == riscv.JALR:
				if inst.Rd == riscv.RA {
					// Indirect call; assume it returns.
					pc += uint64(inst.Len)
					continue
				}
				// Indirect jump (including ret): path ends here.
			case inst.IsBranch():
				work = append(work, pc+uint64(inst.Imm))
				pc += uint64(inst.Len)
				continue
			default:
				// Environment calls return; ebreak may too (debugger).
				pc += uint64(inst.Len)
				continue
			}
			break
		}
	}
}

// finish lays the discovered instructions out in address order by one
// linear scan of the index, renumbers the slots to their new positions,
// and derives Calls and IndirectJumps.
func (b *builder) finish() {
	r := b.r
	order := make([]Insn, 0, len(b.base)+b.n)
	var execs []*span
	for i := range r.spans {
		if sp := &r.spans[i]; sp.even != nil || sp.odd != nil {
			execs = append(execs, sp)
		}
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].start < execs[j].start })
	sorted := true
	for i, sp := range execs {
		if i > 0 && sp.start < execs[i-1].start+uint64(len(execs[i-1].data)) {
			sorted = false // overlapping sections: scan order is not address order
		}
		for p := range max(len(sp.even), len(sp.odd)) {
			var even, odd *page
			if sp.even != nil {
				even = sp.even[p]
			}
			if sp.odd != nil {
				odd = sp.odd[p]
			}
			if even == nil && odd == nil {
				continue
			}
			for k := range len(page{}) {
				if even != nil && even[k] > 0 {
					order = append(order, b.at(int(even[k]-1)))
					even[k] = int32(len(order))
				}
				if odd != nil && odd[k] > 0 {
					order = append(order, b.at(int(odd[k]-1)))
					odd[k] = int32(len(order))
				}
			}
		}
	}
	if !sorted {
		sort.Slice(order, func(i, j int) bool { return order[i].Addr < order[j].Addr })
		for i, in := range order {
			sp := r.find(in.Addr)
			*sp.slot(in.Addr-sp.start, false) = int32(i + 1)
		}
	}
	r.Order = order
	for _, in := range order {
		switch in.Inst.Op {
		case riscv.JAL:
			if in.Inst.Rd == riscv.RA {
				r.Calls = append(r.Calls, in.Addr)
			}
		case riscv.JALR:
			if in.Inst.Rd == riscv.RA {
				r.Calls = append(r.Calls, in.Addr)
			}
			r.IndirectJumps = append(r.IndirectJumps, in.Addr)
		}
	}
}

// Coverage returns the fraction of executable bytes covered by recognized
// instructions.
func (r *Result) Coverage(img *obj.Image) float64 {
	covered := 0
	for _, in := range r.Order {
		covered += in.Inst.Len
	}
	total := img.CodeSize()
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
