// Package emu implements the simulated RISC-V hardware Chimera runs on: a
// paged memory with R/W/X permissions, and RV64IMFDCV cores with per-core
// extension masks, precise deterministic faults and a cycle cost model.
//
// The substrate replaces the paper's SpacemiT K1 / SOPHGO SG2042 boards. It
// is deliberately architectural rather than microarchitectural: what matters
// to Chimera is that jumping into a non-executable data segment raises a
// segmentation fault, that reserved encodings raise illegal-instruction
// faults, and that instruction costs accumulate so rewriting overhead is
// measurable.
package emu

import (
	"encoding/binary"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// Page is one 4KiB frame plus its mapping permission. Pages are shared by
// reference between address spaces: Chimera's MMViews map the same data
// frames into every view while giving each view its own code frames (§4.3).
type Page struct {
	// log is the DirtyLog tracking this frame, if any (see dirty). It is
	// the frame's only pointer and comes first, so the garbage collector
	// scans one word of a Page rather than all of Data.
	log *DirtyLog

	Data [obj.PageSize]byte
	Perm obj.Perm

	// dirty is set by every mutation of Data through a Memory — guest
	// stores (storeU64/storeU32, and access for writes: the interpreter,
	// the vector unit, Write, and through it the kernel's read(2) copy-in
	// and vector-state spills) and Poke — and cleared only by ClearDirty.
	// It sits beside Perm so the test that guards it hits the cache line
	// the permission check just loaded. The loader (MapSection) writes
	// without setting it. When it goes from false to true on a frame a
	// DirtyLog tracks, the frame's slot is appended to that log (setDirty).
	dirty bool
	slot  int32

	// gen counts Pokes into this frame. Because frames are shared by
	// reference, decoded-code caches (icache, blocks, traces) validate
	// against it in addition to the per-address-space generation: a Poke
	// through one Memory invalidates cached translations of every CPU whose
	// address space maps the same frame.
	gen uint64
}

// Gen returns the frame's code-patch generation.
func (p *Page) Gen() uint64 { return p.gen }

// Dirty reports whether the frame's bytes were mutated since the last
// ClearDirty. kernel.Process.Reset restores only dirty frames.
func (p *Page) Dirty() bool { return p.dirty }

// ClearDirty marks the frame clean. The caller asserts its bytes are back
// at the state it restores to.
func (p *Page) ClearDirty() { p.dirty = false }

// setDirty marks a clean frame dirty and logs it if a DirtyLog tracks it.
// Callers test p.dirty first, so a store to an already-dirty frame costs
// one predictable branch.
func (p *Page) setDirty() {
	p.dirty = true
	if p.log != nil {
		p.log.dirtied = append(p.log.dirtied, p.slot)
	}
}

// DirtyLog records tracked frames as they turn dirty, so a restorer visits
// the frames an execution wrote instead of testing every frame it could
// restore. The log belongs to the frames, not to the Memory that writes
// them: a frame shared by several address spaces is logged whichever of
// them dirties it.
type DirtyLog struct {
	frames  []*Page // tracked frames, by slot
	dirtied []int32 // slots whose frames turned dirty since the last Drain
}

// Track registers p and returns its slot: from now on the first write that
// dirties p (after a ClearDirty) appends the slot to the log. Slots are
// dense, in registration order; tracking a frame twice returns its first
// slot. A frame belongs to at most one log, so Track takes p from any other
// log, which then no longer sees it.
func (l *DirtyLog) Track(p *Page) int {
	if p.log != l {
		p.log, p.slot = l, int32(len(l.frames))
		l.frames = append(l.frames, p)
	}
	return int(p.slot)
}

// Untrack unregisters every tracked frame and empties the log.
func (l *DirtyLog) Untrack() {
	for _, p := range l.frames {
		if p.log == l {
			p.log = nil
		}
	}
	clear(l.frames)
	l.frames = l.frames[:0]
	l.dirtied = l.dirtied[:0]
}

// Drain returns the slots logged since the last Drain, in the order their
// frames turned dirty, and empties the log. A slot appears once per
// clean-to-dirty transition. The slice is valid until the next tracked
// frame turns dirty.
func (l *DirtyLog) Drain() []int32 {
	d := l.dirtied
	l.dirtied = l.dirtied[:0]
	return d
}

// Memory is a sparse paged address space. A one-entry translation cache
// keeps the hot-loop lookup off the page map.
type Memory struct {
	pages map[uint64]*Page

	lastPN   uint64
	lastPage *Page

	lastFetchPN   uint64
	lastFetchPage *Page

	// gen counts every mapping/code mutation — the coarse observable
	// exposed by Gen() for tests and diagnostics.
	gen uint64

	// mapGen counts only mapping mutations (Map/MapPage/ShareFrom).
	// Translation caches key on (mapGen, per-frame patch generations): a
	// remap invalidates every cached translation of this address space,
	// while a Poke invalidates only translations spanning the poked frames
	// — in every address space sharing them.
	mapGen uint64
}

// Gen returns the mutation generation of the address space.
func (m *Memory) Gen() uint64 { return m.gen }

// MapGen returns the mapping-mutation generation of the address space.
func (m *Memory) MapGen() uint64 { return m.mapGen }

// Poke writes bytes bypassing page permissions — the kernel's code-patching
// primitive (runtime rewriting, §4.3). It bumps the generation so decoded
// instruction and basic-block caches drop stale entries. The whole range is
// validated before any byte is written: a poke that touches an unmapped page
// writes nothing, so a false return never leaves half-patched code behind a
// stale generation.
func (m *Memory) Poke(addr uint64, data []byte) bool {
	if len(data) == 0 {
		return true
	}
	for pn := pageOf(addr); pn <= pageOf(addr+uint64(len(data))-1); pn++ {
		if _, ok := m.pages[pn]; !ok {
			return false
		}
	}
	for len(data) > 0 {
		p := m.pages[pageOf(addr)]
		off := addr & (obj.PageSize - 1)
		n := copy(p.Data[off:], data)
		p.gen++
		if !p.dirty {
			p.setDirty()
		}
		data = data[n:]
		addr += uint64(n)
	}
	m.gen++
	return true
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{pages: make(map[uint64]*Page)} }

func pageOf(addr uint64) uint64 { return addr >> 12 }

// Page returns the frame mapped at the page containing addr.
func (m *Memory) Page(addr uint64) (*Page, bool) {
	p, ok := m.pages[pageOf(addr)]
	return p, ok
}

// MapPage installs an existing frame at the page containing addr, enabling
// frame sharing between address spaces.
func (m *Memory) MapPage(addr uint64, p *Page) {
	m.pages[pageOf(addr)] = p
	m.lastPage, m.lastFetchPage = nil, nil
	m.gen++
	m.mapGen++
}

// lookup resolves a page through the one-entry caches (instruction fetches
// and data accesses stream through separate entries so they don't thrash).
func (m *Memory) lookup(pn uint64, fetch bool) (*Page, bool) {
	if fetch {
		if m.lastFetchPage != nil && m.lastFetchPN == pn {
			return m.lastFetchPage, true
		}
	} else if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage, true
	}
	p, ok := m.pages[pn]
	if ok {
		if fetch {
			m.lastFetchPN, m.lastFetchPage = pn, p
		} else {
			m.lastPN, m.lastPage = pn, p
		}
	}
	return p, ok
}

// Map allocates zeroed frames covering [addr, addr+size) with the given
// permission. Partial pages are rounded out.
func (m *Memory) Map(addr, size uint64, perm obj.Perm) {
	for pn := pageOf(addr); pn <= pageOf(addr+size-1); pn++ {
		if _, ok := m.pages[pn]; !ok {
			m.pages[pn] = &Page{Perm: perm}
		} else {
			m.pages[pn].Perm |= perm
		}
	}
	m.lastPage, m.lastFetchPage = nil, nil
	m.gen++
	m.mapGen++
}

// MapSection maps a section's bytes at its address.
func (m *Memory) MapSection(s *obj.Section) {
	if len(s.Data) == 0 {
		return
	}
	m.Map(s.Addr, uint64(len(s.Data)), s.Perm)
	m.write(s.Addr, s.Data)
}

// MapImage maps every section of an image plus a stack.
func (m *Memory) MapImage(img *obj.Image) {
	for _, s := range img.Sections {
		m.MapSection(s)
	}
	m.Map(obj.StackTop-obj.StackSize, obj.StackSize, obj.PermRW)
}

// write stores bytes without permission checks (loader path).
func (m *Memory) write(addr uint64, data []byte) {
	for len(data) > 0 {
		p := m.pages[pageOf(addr)]
		off := addr & (obj.PageSize - 1)
		n := copy(p.Data[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// access performs a checked read or write of n bytes at addr. It returns
// the address that faulted, if any.
func (m *Memory) access(addr uint64, buf []byte, write bool, need obj.Perm) (uint64, bool) {
	a := addr
	for len(buf) > 0 {
		p, ok := m.lookup(pageOf(a), need == obj.PermX)
		if !ok || p.Perm&need == 0 {
			return a, false
		}
		off := a & (obj.PageSize - 1)
		var n int
		if write {
			n = copy(p.Data[off:], buf)
			if !p.dirty {
				p.setDirty()
			}
		} else {
			n = copy(buf, p.Data[off:])
		}
		buf = buf[n:]
		a += uint64(n)
	}
	return 0, true
}

// The loadU/storeU/fetchU helpers are the in-page fast paths the block
// engine dispatches through: when an access lies entirely inside one page
// (which every aligned access does), they go straight through the one-entry
// translation cache to the frame bytes, skipping access()'s multi-page copy
// loop and the intermediate buffer. They return ok=false for any access
// that crosses a page, is unmapped, or lacks permission — callers fall back
// to Read/Write/Fetch, which re-derive the precise faulting address.

func (m *Memory) loadU64(addr uint64) (uint64, bool) {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-8 {
		return 0, false
	}
	p, ok := m.lookup(pageOf(addr), false)
	if !ok || p.Perm&obj.PermR == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p.Data[off:]), true
}

func (m *Memory) loadU32(addr uint64) (uint32, bool) {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-4 {
		return 0, false
	}
	p, ok := m.lookup(pageOf(addr), false)
	if !ok || p.Perm&obj.PermR == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p.Data[off:]), true
}

func (m *Memory) storeU64(addr uint64, v uint64) bool {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-8 {
		return false
	}
	p, ok := m.lookup(pageOf(addr), false)
	if !ok || p.Perm&obj.PermW == 0 {
		return false
	}
	if !p.dirty {
		p.setDirty()
	}
	binary.LittleEndian.PutUint64(p.Data[off:], v)
	return true
}

func (m *Memory) storeU32(addr uint64, v uint32) bool {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-4 {
		return false
	}
	p, ok := m.lookup(pageOf(addr), false)
	if !ok || p.Perm&obj.PermW == 0 {
		return false
	}
	if !p.dirty {
		p.setDirty()
	}
	binary.LittleEndian.PutUint32(p.Data[off:], v)
	return true
}

func (m *Memory) fetchU16(addr uint64) (uint16, bool) {
	off := addr & (obj.PageSize - 1)
	if off > obj.PageSize-2 {
		return 0, false
	}
	p, ok := m.lookup(pageOf(addr), true)
	if !ok || p.Perm&obj.PermX == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint16(p.Data[off:]), true
}

// Read copies n bytes at addr into buf, checking read permission.
func (m *Memory) Read(addr uint64, buf []byte) (uint64, bool) {
	return m.access(addr, buf, false, obj.PermR)
}

// Write copies buf to addr, checking write permission.
func (m *Memory) Write(addr uint64, buf []byte) (uint64, bool) {
	return m.access(addr, buf, true, obj.PermW)
}

// Fetch reads up to 4 instruction bytes at addr, checking execute
// permission. fewer than 4 bytes are returned only at the edge of the
// mapped region.
func (m *Memory) Fetch(addr uint64, buf []byte) (uint64, bool) {
	return m.access(addr, buf, false, obj.PermX)
}

// ReadUint64 loads a little-endian u64.
func (m *Memory) ReadUint64(addr uint64) (uint64, error) {
	var b [8]byte
	if fa, ok := m.Read(addr, b[:]); !ok {
		return 0, fmt.Errorf("emu: read fault at %#x", fa)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 stores a little-endian u64.
func (m *Memory) WriteUint64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if fa, ok := m.Write(addr, b[:]); !ok {
		return fmt.Errorf("emu: write fault at %#x", fa)
	}
	return nil
}

// Clone returns a new address space sharing no frames with m (deep copy).
// The copies are tracked by no DirtyLog.
func (m *Memory) Clone() *Memory {
	out := NewMemory()
	for pn, p := range m.pages {
		cp := *p
		cp.log = nil
		out.pages[pn] = &cp
	}
	return out
}

// ShareFrom maps every frame of src whose page falls inside [addr,
// addr+size) into m by reference. Used to share data segments between
// MMViews.
func (m *Memory) ShareFrom(src *Memory, addr, size uint64) {
	for pn := pageOf(addr); pn <= pageOf(addr+size-1); pn++ {
		if p, ok := src.pages[pn]; ok {
			m.pages[pn] = p
		}
	}
	m.lastPage, m.lastFetchPage = nil, nil
	m.gen++
	m.mapGen++
}
