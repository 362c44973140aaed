package kernel

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/asm"
	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// buildDirtyingProgram returns an RV64GCV guest that dirties memory every
// way a guest can: scalar stores to the tail of a data page and straddling
// two data pages, stores deep into the stack, read(2) input copied into
// .data, and vector stores. It yields once (the test migrates it to the
// base-core view there) and its SIGUSR1 handler stores into .data and the
// stack too. A .bss section starts mid-page right after .data, so one frame
// carries two restore targets, and the guest stores into both.
func buildDirtyingProgram(t *testing.T) *obj.Image {
	t.Helper()
	blob := make([]byte, 3*obj.PageSize)
	for i := range blob {
		blob[i] = byte(i*7 + 1)
	}
	b := asm.NewBuilder(riscv.RV64GCV)
	b.Data("blob", blob)
	b.Zero("out", 64)
	b.Func("main")
	b.La(riscv.A1, "handler")
	b.Li(riscv.A0, SIGUSR1)
	b.Li(riscv.A7, SysSigaction)
	b.Ecall()
	// read(0, blob+100, 64)
	b.Li(riscv.A0, 0)
	b.La(riscv.A1, "blob")
	b.Imm(riscv.ADDI, riscv.A1, riscv.A1, 100)
	b.Li(riscv.A2, 64)
	b.Li(riscv.A7, SysRead)
	b.Ecall()
	// A loop long enough for the block and trace tiers to compile the
	// stores.
	b.Li(riscv.S5, 1)
	b.Li(riscv.S6, 200)
	b.Label("loop")
	b.La(riscv.S2, "blob")
	// t0 = the end of blob's first page.
	b.Li(riscv.T0, obj.PageSize)
	b.Op(riscv.ADD, riscv.T0, riscv.S2, riscv.T0)
	b.Imm(riscv.SRLI, riscv.T0, riscv.T0, 12)
	b.Imm(riscv.SLLI, riscv.T0, riscv.T0, 12)
	b.Store(riscv.SD, riscv.S5, riscv.T0, -8) // tail of a data page
	b.Store(riscv.SD, riscv.S5, riscv.T0, -4) // straddles two data pages
	b.Li(riscv.T1, 0xF0000)
	b.Op(riscv.SUB, riscv.T1, riscv.SP, riscv.T1)
	b.Store(riscv.SD, riscv.S5, riscv.T1, 0) // deep stack
	b.La(riscv.T1, "out")
	b.Store(riscv.SD, riscv.S5, riscv.T1, 64+8) // .bss, past the end of .data
	b.Li(riscv.T1, 0x80008)
	b.Op(riscv.SUB, riscv.T1, riscv.SP, riscv.T1)
	b.Store(riscv.SW, riscv.S5, riscv.T1, 0)
	b.La(riscv.S3, "out")
	b.Li(riscv.A3, 4)
	b.I(riscv.Inst{Op: riscv.VSETVLI, Rd: riscv.T2, Rs1: riscv.A3, Imm: riscv.VType(riscv.E64)})
	b.I(riscv.Inst{Op: riscv.VLE64V, Rd: 1, Rs1: riscv.S2})
	b.I(riscv.Inst{Op: riscv.VADDVV, Rd: 2, Rs1: 1, Rs2: 1})
	b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 2, Rs1: riscv.S3}) // vector store
	b.Imm(riscv.ADDI, riscv.S5, riscv.S5, 1)
	b.Blt(riscv.S5, riscv.S6, "loop")
	b.Li(riscv.A7, SysYield)
	b.Ecall()
	// After the migration: vector code runs translated against the
	// base-core view's simulated register file.
	b.Imm(riscv.ADDI, riscv.S3, riscv.S3, 32)
	b.I(riscv.Inst{Op: riscv.VADDVV, Rd: 3, Rs1: 2, Rs2: 1})
	b.I(riscv.Inst{Op: riscv.VSE64V, Rd: 3, Rs1: riscv.S3})
	b.Li(riscv.A0, 0)
	exitWith(b)
	b.Func("handler")
	b.La(riscv.T0, "blob")
	b.Li(riscv.T1, 2*obj.PageSize+200)
	b.Op(riscv.ADD, riscv.T0, riscv.T0, riscv.T1)
	b.Li(riscv.T1, 0x5A5A)
	b.Store(riscv.SD, riscv.T1, riscv.T0, 0)
	b.Li(riscv.T2, 0x40000)
	b.Op(riscv.SUB, riscv.T2, riscv.SP, riscv.T2)
	b.Store(riscv.SD, riscv.T1, riscv.T2, 0)
	b.Li(riscv.A7, SysSigreturn)
	b.Ecall()
	img, err := b.Build("dirty", "main")
	if err != nil {
		t.Fatal(err)
	}
	data := img.Section(obj.SecData)
	if data.End()%obj.PageSize == 0 {
		t.Fatal(".data ends on a page boundary; .bss would not share its frame")
	}
	img.AddSection(&obj.Section{Name: obj.SecBSS, Addr: data.End(), Data: make([]byte, 256), Perm: obj.PermRW})
	return img
}

// runDirtying runs the guest to its yield on the extension core, migrates
// it to the base-core view, delivers SIGUSR1 and runs it to exit.
func runDirtying(t *testing.T, p *Process, input []byte) {
	t.Helper()
	p.SetInput(input)
	if _, st, err := p.Run(10_000_000); err != nil || st != StatusYield {
		t.Fatalf("first half: %v %v", st, err)
	}
	if err := p.MigrateTo(riscv.RV64GC); err != nil {
		t.Fatal(err)
	}
	p.Kill(SIGUSR1)
	if _, st, err := p.Run(10_000_000); err != nil || st != StatusExited {
		t.Fatalf("second half: %v %v (pc=%#x)", st, err, p.CPU.PC)
	}
	if p.ExitCode != 0 || p.Counters.SignalsTaken == 0 {
		t.Fatalf("exit %d after %d signals, want exit 0 after the handler ran",
			p.ExitCode, p.Counters.SignalsTaken)
	}
}

// frameBytes reads [addr, addr+n) from m's frames, bypassing permissions.
// Unmapped bytes read as 0xEE, so a missing frame is a difference too.
func frameBytes(m *emu.Memory, addr, n uint64) []byte {
	out := bytes.Repeat([]byte{0xEE}, int(n))
	for i := uint64(0); i < n; {
		a := addr + i
		off := a & (obj.PageSize - 1)
		k := min(n-i, obj.PageSize-off)
		if pg, ok := m.Page(a); ok {
			copy(out[i:i+k], pg.Data[off:])
		}
		i += k
	}
	return out
}

// resetDiffs names every writable section and stack page whose bytes in p
// differ from those in fresh, view by view.
func resetDiffs(p, fresh *Process) []string {
	var diffs []string
	for _, fv := range fresh.views {
		pv, _ := p.ViewFor(fv.isa)
		for _, s := range fv.img.Sections {
			if s.Perm&obj.PermW == 0 {
				continue
			}
			n := uint64(len(s.Data))
			if !bytes.Equal(frameBytes(pv.mem, s.Addr, n), frameBytes(fv.mem, s.Addr, n)) {
				diffs = append(diffs, fmt.Sprintf("%v %s", fv.isa, s.Name))
			}
		}
		for a := obj.StackTop - obj.StackSize; a < obj.StackTop; a += obj.PageSize {
			if !bytes.Equal(frameBytes(pv.mem, a, obj.PageSize), frameBytes(fv.mem, a, obj.PageSize)) {
				diffs = append(diffs, fmt.Sprintf("%v stack %#x", fv.isa, a))
			}
		}
	}
	return diffs
}

// mustPage returns the frame m maps at addr.
func mustPage(t *testing.T, m *emu.Memory, addr uint64) *emu.Page {
	t.Helper()
	pg, ok := m.Page(addr)
	if !ok {
		t.Fatalf("no frame at %#x", addr)
	}
	return pg
}

func hasDiff(diffs []string, prefix string) bool {
	for _, d := range diffs {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// checkReset resets p and requires every writable section and stack page
// to equal fresh's, the dirty log to be empty and every frame Reset
// restores to be clean again.
func checkReset(t *testing.T, p, fresh *Process, when string) {
	t.Helper()
	p.Reset()
	if d := resetDiffs(p, fresh); len(d) != 0 {
		t.Fatalf("%s: after Reset differs from a fresh process in %v", when, d)
	}
	if n := len(p.dirtyLog.Drain()); n != 0 {
		t.Fatalf("%s: Reset left %d frames in the dirty log", when, n)
	}
	for _, ts := range p.frames {
		if ts[0].page.Dirty() {
			t.Fatalf("%s: Reset left a restored frame dirty", when)
		}
	}
}

// mustWrite stores b at addr through m, as a guest store would.
func mustWrite(t *testing.T, m *emu.Memory, addr uint64, b ...byte) {
	t.Helper()
	if fa, ok := m.Write(addr, b); !ok {
		t.Fatalf("write fault at %#x", fa)
	}
}

// requireDiffs fails unless every named section or stack prefix differs
// from fresh: a case that dirtied nothing would prove nothing.
func requireDiffs(t *testing.T, p, fresh *Process, when string, want ...string) {
	t.Helper()
	diffs := resetDiffs(p, fresh)
	for _, w := range want {
		if !hasDiff(diffs, w) {
			t.Fatalf("%s: %q left untouched; the oracle would prove nothing (diffs %v)", when, w, diffs)
		}
	}
}

// TestResetMatchesFreshProcess is the oracle for the dirty-frame Reset: in
// every emulator tier, after a guest has dirtied .data (including a page
// tail and a page-straddling store), the deep stack, read(2) input, vector
// stores, the base-core view's register file and memory written by a
// signal handler, Reset must leave every writable section of every view
// and every stack page byte-identical to a freshly built process. The
// first Reset builds the restore list and restores everything; the later
// ones restore only the frames the dirty log recorded, so those are the
// rounds under test. Direct writes then cover what one guest run does not:
// a shared data frame dirtied through the second view while the stack is
// dirtied through the first, one frame dirtied in two consecutive execs, a
// dirtied frame followed by a remap (the full restore must drain the log),
// and writes to frames outside the restore list before tracked ones. The
// last rounds remap frames behind the process's back with contents the
// dirty bits know nothing about, which a stale restore list would miss.
func TestResetMatchesFreshProcess(t *testing.T) {
	img := buildDirtyingProgram(t)
	variants := chimeraVariants(t, img)
	gc := riscv.RV64GC
	for _, mode := range []struct {
		name      string
		interp    bool
		threshold uint32
	}{
		{"interp", true, 0},
		{"blocks", false, 0},
		{"traces", false, 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p, err := NewProcess("dirty", variants)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewProcess("dirty", variants)
			if err != nil {
				t.Fatal(err)
			}
			gv, ok := p.ViewFor(gc)
			if !ok || gv == p.first {
				t.Fatal("want two views")
			}
			p.CPU.Interp = mode.interp
			p.CPU.TraceThreshold = mode.threshold
			for round := 0; round < 4; round++ {
				input := bytes.Repeat([]byte{byte(0xC0 + round)}, 64)
				runDirtying(t, p, input)
				// The kernel's patching primitive dirties frames too.
				if !gv.mem.Poke(img.Section(obj.SecSData).Addr+40, []byte{0x77}) {
					t.Fatal("poke into .sdata failed")
				}
				requireDiffs(t, p, fresh, fmt.Sprintf("round %d", round),
					fmt.Sprintf("%v %s", riscv.RV64GCV, obj.SecData),
					fmt.Sprintf("%v %s", riscv.RV64GCV, obj.SecBSS),
					fmt.Sprintf("%v %s", gc, obj.SecData),
					fmt.Sprintf("%v %s", gc, obj.SecVRegFile),
					fmt.Sprintf("%v %s", gc, obj.SecSData),
					fmt.Sprintf("%v stack", riscv.RV64GCV))
				checkReset(t, p, fresh, fmt.Sprintf("round %d", round))
			}
			if mode.name == "traces" && p.CPU.Blocks.TracesBuilt == 0 {
				t.Error("traces tier built no traces; the stores ran in a lower tier")
			}

			data := img.Section(obj.SecData)
			dataName := fmt.Sprintf("%v %s", riscv.RV64GCV, obj.SecData)
			stackName := fmt.Sprintf("%v stack", riscv.RV64GCV)
			deepStack := obj.StackTop - obj.StackSize + 5*obj.PageSize

			// A shared .data frame dirtied through the second view, the
			// stack through the first.
			if a, _ := p.first.mem.Page(data.Addr); a != mustPage(t, gv.mem, data.Addr) {
				t.Fatal(".data's first frame is not shared between the views")
			}
			mustWrite(t, gv.mem, data.Addr+8, 0x11, 0x22)
			mustWrite(t, p.first.mem, deepStack+16, 0x33)
			requireDiffs(t, p, fresh, "shared frame", dataName, stackName)
			checkReset(t, p, fresh, "shared frame via the second view")

			// The same frame dirtied in two consecutive execs.
			for exec := 0; exec < 2; exec++ {
				mustWrite(t, p.first.mem, deepStack+24, byte(0x40+exec))
				requireDiffs(t, p, fresh, "same frame", stackName)
				checkReset(t, p, fresh, fmt.Sprintf("same frame, exec %d", exec))
			}

			// A dirtied frame, then a remap: the full restore must drain
			// the log. The remap maps a frame outside the restore list.
			untracked := obj.StackTop - obj.StackSize - 64*obj.PageSize
			if _, ok := gv.mem.Page(untracked); ok {
				t.Fatal("the untracked probe page is already mapped")
			}
			mustWrite(t, gv.mem, data.Addr+obj.PageSize+8, 0x55)
			gv.mem.Map(untracked, obj.PageSize, obj.PermRW)
			requireDiffs(t, p, fresh, "before remap", dataName)
			checkReset(t, p, fresh, "dirtied frame then remap")

			// Writes to frames outside the restore list — a fresh mapping
			// and a same-bytes Poke into .text — come first; the tracked
			// frames written after them must still be restored.
			text := img.Text()
			for round := 0; round < 2; round++ {
				mustWrite(t, gv.mem, untracked+8, byte(0x60+round))
				if !p.first.mem.Poke(text.Addr, text.Data[:4]) {
					t.Fatal("poke into .text failed")
				}
				mustWrite(t, gv.mem, data.Addr+16, byte(0xA0+round))
				mustWrite(t, p.first.mem, deepStack+32, byte(0x80+round))
				requireDiffs(t, p, fresh, "untracked first", dataName, stackName)
				checkReset(t, p, fresh, fmt.Sprintf("untracked frames first, round %d", round))
			}
			runDirtying(t, p, bytes.Repeat([]byte{0xDD}, 64))
			checkReset(t, p, fresh, "a run after the untracked writes")

			// MapPage: a clean frame holding garbage replaces a shared
			// .data frame in the base-core view.
			garbage := &emu.Page{Perm: obj.PermRW}
			for i := range garbage.Data {
				garbage.Data[i] = 0xAB
			}
			gv.mem.MapPage(data.Addr+obj.PageSize, garbage)
			checkReset(t, p, fresh, "after MapPage")

			// ShareFrom: the first view takes a stack frame from another
			// address space, again clean but not zero.
			other := emu.NewMemory()
			deep := obj.StackTop - obj.StackSize + 3*obj.PageSize
			other.Map(deep, obj.PageSize, obj.PermRW)
			pg, _ := other.Page(deep)
			pg.Data[17] = 0xCD
			p.first.mem.ShareFrom(other, deep, obj.PageSize)
			checkReset(t, p, fresh, "after ShareFrom")

			// The process still runs correctly from the restored state.
			runDirtying(t, p, bytes.Repeat([]byte{0xEE}, 64))
			checkReset(t, p, fresh, "after a run on remapped frames")
		})
	}
}
