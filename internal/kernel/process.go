package kernel

import (
	"encoding/binary"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/chaos"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// Variant is the content of one MMView: the rewritten (or original) binary
// a particular core class executes, plus its runtime metadata.
type Variant struct {
	ISA    riscv.Ext
	Image  *obj.Image
	Tables *chbp.Tables
	// AddrMap enables Safer-style indirect-target translation for this view.
	AddrMap map[uint64]uint64
	// SaferChecks installs the regeneration pointer-check hook.
	SaferChecks bool
	// SaferResolved lists original-space indirect targets the resolver
	// statically encoded (rewriters.Rewritten.Resolved): the check hook
	// skips the translation-table penalty for them.
	SaferResolved map[uint64]bool
}

// View is one loaded MMView: an address space instantiated from a variant,
// sharing data frames with its sibling views (§4.3, Fig. 9).
type View struct {
	isa      riscv.Ext
	img      *obj.Image
	tables   *chbp.Tables
	mem      *emu.Memory
	hook     func(pc, target uint64) (uint64, uint64)
	vregAddr uint64
	// addrMap/revMap translate original-space instruction addresses to this
	// view's regenerated addresses and back (Safer-style views; nil for
	// address-preserving patched views).
	addrMap map[uint64]uint64
	revMap  map[uint64]uint64
	// runtime rewriting area
	patchBase, patchCursor, patchEnd uint64
	// resolvedSeen records resolver-pre-materialized trap sites already
	// credited to Counters.RewriteFaultsAvoided. It survives Reset, like
	// the rewrites themselves.
	resolvedSeen map[uint64]bool
}

// sharedSections are mapped once and shared by reference across views.
var sharedSections = map[string]bool{
	obj.SecRodata: true,
	obj.SecData:   true,
	obj.SecSData:  true,
	obj.SecBSS:    true,
}

// FAMPolicy selects fault-and-migrate behavior: an unsupported instruction
// asks the scheduler to move the task instead of being rewritten (§2.1).
type FAMPolicy bool

// Process is a loaded program with one view per core class (§4.3).
type Process struct {
	Name string
	// CPU holds the architectural state; its Mem/ISA switch on migration.
	CPU   *emu.CPU
	views []*View // in variant order
	cur   *View
	first *View // the initial view, where Reset restarts execution

	// frames is Reset's work list, built from views and grouped by frame:
	// frames[s] holds, in list order, the restore targets of the frame in
	// dirtyLog slot s. restoreGen is the sum of every view's Memory.MapGen
	// when it was built: the counters only grow, so the sum moves exactly
	// when some view was remapped.
	frames     [][]restoreTarget
	restoreGen uint64
	dirtyLog   emu.DirtyLog

	FAM FAMPolicy

	// Chaos, when non-nil, injects spurious faults and migration demands
	// into this process's run loop (internal/chaos). Injections are
	// absorbed transparently: a chaos run must end in the same
	// architectural state as a clean one.
	Chaos *chaos.Injector

	Exited   bool
	ExitCode uint64
	Output   []byte

	// Input backs the read(2) syscall: sequential reads consume it from
	// inputOff, then return EOF. SetInput rearms it; Reset rewinds the
	// cursor. This is how the fuzzing service feeds test cases to a guest
	// without rebuilding the process.
	Input    []byte
	inputOff int

	Counters Counters

	// hooks is the process-owned instrumentation hook set, installed on the
	// CPU at construction. Its address never changes, so migrations and
	// resets mutate fields in place and warm translations stay valid.
	hooks instrument.Hooks

	handlers map[int]uint64 // signal number -> user handler pc
	inSignal bool
	sigFrame sigContext
	pending  []int
}

// Hooks exposes the process's instrumentation hook set for observer
// installation. After mutating observer fields (Cov/Cmp/Mem), call
// CPU.RefreshHooks so translations are keyed on the new observer set.
func (p *Process) Hooks() *instrument.Hooks { return &p.hooks }

// SetInput arms the read(2) input buffer and rewinds its cursor. The slice
// is aliased, not copied.
func (p *Process) SetInput(b []byte) {
	p.Input = b
	p.inputOff = 0
}

type sigContext struct {
	X  [32]uint64
	F  [32]uint64
	PC uint64
}

// VariantFromImage builds a Variant from a (possibly rewritten) image,
// recovering the embedded fault-handling tables if present.
func VariantFromImage(img *obj.Image) (Variant, error) {
	tables, err := chbp.TablesOf(img)
	if err != nil {
		return Variant{}, fmt.Errorf("kernel: parsing embedded tables: %w", err)
	}
	return Variant{ISA: img.ISA, Image: img, Tables: tables}, nil
}

// NewProcess loads the variants into views with shared data frames and
// prepares the architectural state at the first variant's entry.
func NewProcess(name string, variants []Variant) (*Process, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("kernel: no variants")
	}
	p := &Process{
		Name:     name,
		handlers: make(map[int]uint64),
	}
	var first *View
	for _, v := range variants {
		for _, w := range p.views {
			if w.isa == v.ISA {
				return nil, fmt.Errorf("kernel: duplicate variant for %v", v.ISA)
			}
		}
		mem := emu.NewMemory()
		mem.MapImage(v.Image)
		view := &View{isa: v.ISA, img: v.Image, tables: v.Tables, mem: mem}
		if v.AddrMap != nil {
			view.addrMap = v.AddrMap
			view.revMap = make(map[uint64]uint64, len(v.AddrMap))
			for o, n := range v.AddrMap {
				view.revMap[n] = o
			}
		}
		if sec := v.Image.Section(obj.SecVRegFile); sec != nil {
			view.vregAddr = sec.Addr
		}
		if v.SaferChecks {
			ts, te := uint64(0), uint64(0)
			if s := v.Image.Text(); s != nil {
				ts, te = s.Addr, s.End()
			}
			m := v.AddrMap
			resolved := v.SaferResolved
			view.hook = func(pc, target uint64) (uint64, uint64) {
				cost := uint64(12)
				if target >= ts && target < te {
					if nt, ok := m[target]; ok {
						if !resolved[target] && (target>>1)%10 == 0 {
							cost += 28
						}
						return nt, cost
					}
				}
				return target, cost
			}
		}
		// Runtime patch area: a page range above everything in this view.
		high := uint64(0)
		for _, s := range v.Image.Sections {
			if s.End() > high {
				high = s.End()
			}
		}
		view.patchBase = obj.AlignUp(high+obj.PageSize, obj.PageSize)
		view.patchCursor = view.patchBase
		view.patchEnd = view.patchBase + 1<<20
		if first == nil {
			first = view
		} else {
			// Share the data segments and the stack with the first view
			// (Fig. 9: all MMViews point at common data frames). A section
			// is shareable only when both views agree on its placement and
			// initial contents — binaries from separate compilations (MELF's
			// per-ISA versions) may embed view-local code pointers, which
			// must stay private to their view.
			for _, s := range v.Image.Sections {
				if !sharedSections[s.Name] {
					continue
				}
				ref := first.img.Section(s.Name)
				if ref == nil || ref.Addr != s.Addr || len(ref.Data) != len(s.Data) {
					continue
				}
				if !bytesEqual(ref.Data, s.Data) {
					continue
				}
				mem.ShareFrom(first.mem, s.Addr, uint64(len(s.Data)))
			}
			mem.ShareFrom(first.mem, obj.StackTop-obj.StackSize, obj.StackSize)
		}
		p.views = append(p.views, view)
	}
	p.cur = first
	p.first = first
	p.CPU = emu.NewCPU(first.mem, first.isa)
	p.CPU.Reset(first.img)
	p.hooks.Indirect = first.hook
	p.CPU.SetHooks(&p.hooks)
	return p, nil
}

// restoreTarget is one frame-sized piece of Reset's work: the bytes
// page.Data[off:off+len(src)] return to.
type restoreTarget struct {
	page *emu.Page
	off  uint64
	src  []byte
}

// zeroFrame is the restore source of every stack frame.
var zeroFrame [obj.PageSize]byte

// Reset rewinds the process to its load state without rebuilding it: every
// view's writable sections are restored from its image, the stack is
// zeroed, and the architectural state returns to the first view's entry —
// but runtime rewrites (trap trampolines, patch-area code, trap tables) and
// the emulator's warm translation caches survive, because no bytes they
// depend on change and no generation moves. This is the steady-state shape
// of a long-lived server re-running the same guest: re-execution costs
// neither page mapping nor re-translation, which is what makes repeated
// runs allocation-free.
//
// Memory costs what the guest touched. Every frame holding a restore
// target (a writable section's bytes in any view, or a stack page) is
// registered with the process's emu.DirtyLog, which logs the frame when its
// dirty bit goes from false to true — whichever view or writer dirtied it.
// Reset drains the log and, for each logged frame, copies back all of that
// frame's targets in list order and marks it clean; frames the exec did not
// write are not visited. The byte ranges restored are exactly the writable
// sections and the stack; the rest of a frame is left as the guest wrote
// it. When any view was remapped since the list was built, the list is
// rebuilt, its frames re-registered (which empties the log), and every
// target restored: a frame mapped in since then carries no dirty history to
// trust.
func (p *Process) Reset() {
	if gen := p.mapGen(); gen != p.restoreGen {
		p.buildRestoreList()
		p.restoreGen = gen
		for _, ts := range p.frames {
			restoreFrame(ts)
		}
	} else {
		for _, s := range p.dirtyLog.Drain() {
			restoreFrame(p.frames[s])
		}
	}
	p.cur = p.first
	p.CPU.Mem = p.first.mem
	p.CPU.ISA = p.first.isa
	p.hooks.Indirect = p.first.hook
	p.hooks.ResetState()
	p.CPU.Reset(p.first.img)
	p.Exited, p.ExitCode = false, 0
	p.Output = p.Output[:0]
	p.inputOff = 0
	clear(p.handlers)
	p.pending = p.pending[:0]
	p.inSignal = false
	p.sigFrame = sigContext{}
}

// restoreFrame copies back the restore targets of one frame, in list
// order, then marks the frame clean.
func restoreFrame(ts []restoreTarget) {
	for _, t := range ts {
		copy(t.page.Data[t.off:], t.src)
	}
	ts[0].page.ClearDirty()
}

func (p *Process) mapGen() uint64 {
	var g uint64
	for _, v := range p.views {
		g += v.mem.MapGen()
	}
	return g
}

// buildRestoreList lists every view's writable sections, then the stack
// frames, which all views share with the first. It registers each listed
// frame with the dirty log, which numbers frames by first appearance, and
// groups the targets by that slot, keeping list order within a frame, so a
// logged slot indexes its targets directly.
func (p *Process) buildRestoreList() {
	var list []restoreTarget
	for _, v := range p.views {
		for _, s := range v.img.Sections {
			if s.Perm&obj.PermW != 0 {
				list = appendRestore(list, v.mem, s.Addr, s.Data)
			}
		}
	}
	for a := obj.StackTop - obj.StackSize; a < obj.StackTop; a += obj.PageSize {
		if pg, ok := p.first.mem.Page(a); ok {
			list = append(list, restoreTarget{page: pg, src: zeroFrame[:]})
		}
	}
	p.dirtyLog.Untrack()
	p.frames = p.frames[:0]
	for _, t := range list {
		if s := p.dirtyLog.Track(t.page); s < len(p.frames) {
			p.frames[s] = append(p.frames[s], t)
		} else {
			p.frames = append(p.frames, []restoreTarget{t})
		}
	}
}

// appendRestore splits the restore of src to addr into per-frame targets.
// A range that reaches an unmapped page is skipped whole, as the loader
// would refuse it.
func appendRestore(ts []restoreTarget, m *emu.Memory, addr uint64, src []byte) []restoreTarget {
	n := len(ts)
	for len(src) > 0 {
		pg, ok := m.Page(addr)
		if !ok {
			return ts[:n]
		}
		off := addr & (obj.PageSize - 1)
		k := min(uint64(len(src)), obj.PageSize-off)
		ts = append(ts, restoreTarget{page: pg, off: off, src: src[:k]})
		src = src[k:]
		addr += k
	}
	return ts
}

// ViewFor returns the view whose binary runs on the given core ISA: an
// exact match, else the richest view the core supports.
func (p *Process) ViewFor(isa riscv.Ext) (*View, bool) {
	var best *View
	for _, v := range p.views {
		if v.isa == isa {
			return v, true
		}
		if isa.Has(v.img.ISA) && (best == nil || v.img.ISA > best.img.ISA) {
			best = v
		}
	}
	return best, best != nil
}

// CurrentView returns the active MMView.
func (p *Process) CurrentView() *View { return p.cur }

// GP returns the view's ABI gp value.
func (v *View) GP() uint64 { return v.img.GP }

// Tables exposes the view's runtime tables.
func (v *View) Tables() *chbp.Tables { return v.tables }

// syncVectorStateOut spills the hart's architectural vector state into the
// view's simulated register file so a base-core view sees it (§4.1).
func (p *Process) syncVectorStateOut(to *View) {
	if to.vregAddr == 0 {
		return
	}
	mem := to.mem
	mem.WriteUint64(to.vregAddr, p.CPU.VL)
	mem.WriteUint64(to.vregAddr+8, uint64(p.CPU.VT))
	var buf [riscv.VLenBytes]byte
	for i := 0; i < 32; i++ {
		copy(buf[:], p.CPU.V[i][:])
		mem.Write(to.vregAddr+16+uint64(i*riscv.VLenBytes), buf[:])
	}
}

// syncVectorStateIn loads the simulated register file back into the hart's
// vector registers when migrating to an extension core.
func (p *Process) syncVectorStateIn(from *View) {
	if from.vregAddr == 0 {
		return
	}
	mem := from.mem
	if vl, err := mem.ReadUint64(from.vregAddr); err == nil {
		p.CPU.VL = vl
	}
	if vt, err := mem.ReadUint64(from.vregAddr + 8); err == nil {
		p.CPU.VT = int64(vt)
	}
	var buf [riscv.VLenBytes]byte
	for i := 0; i < 32; i++ {
		if _, ok := mem.Read(from.vregAddr+16+uint64(i*riscv.VLenBytes), buf[:]); ok {
			copy(p.CPU.V[i][:], buf[:])
		}
	}
}

// MigrateTo switches the process to the view for the target core ISA
// (Fig. 9 ②). If the pc currently sits inside generated target
// instructions, the migration is delayed by running to the block's exit
// probe first (§4.3). The bound caps that run.
func (p *Process) MigrateTo(isa riscv.Ext) error {
	target, ok := p.ViewFor(isa)
	if !ok {
		if p.FAM {
			// Fault-and-migrate has no per-core variants: the task runs its
			// only binary anywhere and relies on the illegal-instruction
			// fault to bounce back to a capable core (§2.1).
			return nil
		}
		return fmt.Errorf("kernel: no view runs on %v", isa)
	}
	if target == p.cur {
		return nil
	}
	// Delay while inside target instructions: the same pc is not
	// semantically equivalent across views there.
	if t := p.cur.tables; t != nil && t.InTargetSection(p.CPU.PC) {
		for i := 0; i < 1_000_000 && t.InTargetSection(p.CPU.PC); i++ {
			if res := p.step(1); res != stepOK {
				break
			}
		}
		if t.InTargetSection(p.CPU.PC) {
			return fmt.Errorf("kernel: migration probe never fired at %#x", p.CPU.PC)
		}
	}
	// Regenerated views live at different code addresses: translate the pc
	// back to the original address space, then forward into the target.
	// (Patched views preserve addresses, so both steps are no-ops there.)
	if p.cur.revMap != nil {
		if orig, ok := p.cur.revMap[p.CPU.PC]; ok {
			p.CPU.PC = orig
		}
	}
	if target.addrMap != nil {
		if npc, ok := target.addrMap[p.CPU.PC]; ok {
			p.CPU.PC = npc
		} else if s := target.img.SectionAt(p.CPU.PC); s == nil || s.Perm&obj.PermX == 0 {
			return fmt.Errorf("kernel: pc %#x not mappable into regenerated view", p.CPU.PC)
		}
	}
	// Vector context moves through the simulated register files.
	if p.cur.isa.Has(riscv.ExtV) && !target.isa.Has(riscv.ExtV) {
		p.syncVectorStateOut(target)
	}
	if !p.cur.isa.Has(riscv.ExtV) && target.isa.Has(riscv.ExtV) {
		p.syncVectorStateIn(p.cur)
	}
	p.cur = target
	p.CPU.Mem = target.mem
	p.CPU.ISA = target.isa
	p.hooks.Indirect = target.hook
	p.Counters.Migrations++
	p.Counters.KernelCycles += MigrationCost
	return nil
}

// runtimeRewrite handles an unrecognized extension instruction that faulted
// (§4.1/§4.3 "Redirection/Rewriting"): the kernel translates it in place
// with a trap trampoline into a per-view patch area.
func (p *Process) runtimeRewrite(v *View, pc uint64) error {
	page, ok := v.mem.Page(pc)
	if !ok {
		return fmt.Errorf("kernel: faulting pc %#x unmapped", pc)
	}
	off := pc & (obj.PageSize - 1)
	raw := make([]byte, 4)
	n := copy(raw, page.Data[off:])
	inst, err := riscv.Decode(raw[:n])
	if err != nil {
		return fmt.Errorf("kernel: cannot decode at %#x: %w", pc, err)
	}
	if p.CPU.ISA.Has(inst.Extension()) {
		return fmt.Errorf("kernel: %s at %#x is already supported", inst, pc)
	}
	if v.vregAddr == 0 {
		return fmt.Errorf("kernel: view has no simulated register file")
	}
	// The element width in effect lives in the simulated vtype slot (any
	// dominating vsetvli was itself downgraded to write it there).
	sew := riscv.E64
	if vt, err := v.mem.ReadUint64(v.vregAddr + 8); err == nil && vt != 0 {
		sew = riscv.SEWOf(int64(vt))
	}
	seq, err := translate.Downgrade(inst, sew, &translate.Context{VRegBase: v.vregAddr})
	if err != nil {
		return err
	}
	// Place the target block followed by a trap exit resuming after the
	// rewritten instruction.
	need := uint64(4*len(seq)) + 4
	if v.patchCursor+need > v.patchEnd {
		return fmt.Errorf("kernel: runtime patch area exhausted")
	}
	v.mem.Map(v.patchCursor, need, obj.PermRX)
	blockAddr := v.patchCursor
	for i, in := range seq {
		w, err := riscv.Encode(in)
		if err != nil {
			return err
		}
		writeCode(v.mem, blockAddr+uint64(4*i), w)
	}
	exitAddr := blockAddr + uint64(4*len(seq))
	writeCode(v.mem, exitAddr, riscv.MustEncode(riscv.Inst{Op: riscv.EBREAK}))
	// Patch the faulting instruction with a trap trampoline of its size.
	if inst.Len == 2 {
		pcl, _ := riscv.EncodeCompressed(riscv.Inst{Op: riscv.EBREAK})
		writeParcel(v.mem, pc, pcl)
	} else {
		writeCode(v.mem, pc, riscv.MustEncode(riscv.Inst{Op: riscv.EBREAK}))
	}
	if v.tables == nil {
		v.tables = chbp.NewTables(v.img.GP)
	}
	v.tables.Trap[pc] = blockAddr
	v.tables.ExitTrap[exitAddr] = pc + uint64(inst.Len)
	// Advance past this block: without this, the next rewrite would overlay
	// its block at the same address, leaving every earlier trap entry
	// pointing into the newer block's bytes — correct on the first, purely
	// sequential pass that triggered the rewrites, and silently wrong the
	// next time any earlier site is re-entered.
	v.patchCursor += need
	p.Counters.RuntimeRewrites++
	p.Counters.KernelCycles += RuntimeRewriteCost
	return nil
}

func bytesEqual(a, b []byte) bool {
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

// writeCode stores a 32-bit word bypassing page permissions (kernel
// privilege).
func writeCode(m *emu.Memory, addr uint64, w uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	m.Poke(addr, b[:])
}

func writeParcel(m *emu.Memory, addr uint64, pcl uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], pcl)
	m.Poke(addr, b[:])
}
