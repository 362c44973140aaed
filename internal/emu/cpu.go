package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// FaultKind classifies a deterministic fault, mirroring the signals the
// paper's modified kernel routes (§4.3).
type FaultKind uint8

// Fault kinds.
const (
	FaultNone    FaultKind = iota
	FaultIllegal           // SIGILL: illegal/reserved encoding or unsupported extension
	FaultAccess            // SIGSEGV: unmapped address or permission violation
)

func (k FaultKind) String() string {
	switch k {
	case FaultIllegal:
		return "SIGILL"
	case FaultAccess:
		return "SIGSEGV"
	}
	return "none"
}

// Fault is a precise fault: PC is the instruction that faulted (for an
// execute-permission fault, the fetch address itself), Addr the offending
// memory address.
type Fault struct {
	Kind FaultKind
	PC   uint64
	Addr uint64
	Err  error
}

func (f Fault) String() string {
	return fmt.Sprintf("%v at pc=%#x addr=%#x (%v)", f.Kind, f.PC, f.Addr, f.Err)
}

// IllegalInst returns the typed illegal-encoding error behind the fault, if
// any, so reports can show the raw offending bits rather than a message.
func (f Fault) IllegalInst() (*riscv.IllegalInstError, bool) {
	var ie *riscv.IllegalInstError
	if errors.As(f.Err, &ie) {
		return ie, true
	}
	return nil, false
}

// StopKind says why CPU.Run returned.
type StopKind uint8

// Stop kinds.
const (
	StopLimit  StopKind = iota // per-call instruction limit exhausted
	StopEcall                  // ecall: the kernel must service a syscall
	StopBreak                  // ebreak: trap-based trampoline or breakpoint
	StopFault                  // deterministic fault raised
	StopBudget                 // hard MaxInstret budget reached (watchdog)
)

// Stop reports why execution paused.
type Stop struct {
	Kind  StopKind
	Fault Fault // valid when Kind == StopFault
}

// Vec is one vector register (VLEN bits).
type Vec [riscv.VLenBytes]byte

// CPU is one simulated hart. ISA is the set of extensions the core
// implements; executing an instruction outside the set raises FaultIllegal,
// which is exactly the fault-and-migrate / runtime-rewriting trigger the
// paper builds on.
type CPU struct {
	X  [32]uint64
	F  [32]uint64
	V  [32]Vec
	VL uint64 // active vector length (elements)
	VT int64  // vtype

	PC  uint64
	Mem *Memory
	ISA riscv.Ext

	Cost    *CostModel
	Cycles  uint64
	Instret uint64

	// Hooks is the instrumentation hook set (nil = uninstrumented).
	// Hooks.Indirect intercepts every indirect jump (jalr) before it
	// retires — it may rewrite the target and charge extra cycles; it is
	// how regeneration baselines' inline target checks (Safer's encoded
	// pointer checks, Multiverse's tables) are modeled on the simulated
	// hardware, with Hooks.IndirectCalls tallying invocations (the Table 2
	// metric). The pure observers (Cov/Cmp/Mem) feed the fuzzing service;
	// Prof is the guest profiler.
	// Install with SetHooks — observer participation is burned into µops at
	// translation time, so the translation caches are keyed on the observer
	// set (the obs mask below). Mutating an already-installed Hooks value's
	// observer fields requires RefreshHooks.
	Hooks *instrument.Hooks

	// LastInst is the most recently retired instruction (diagnostics).
	LastInst riscv.Inst

	// Interp forces Run through the historical per-instruction loop instead
	// of the basic-block engine. The two are architecturally identical; the
	// flag exists for differential testing and baseline benchmarks.
	Interp bool

	// MaxInstret, when nonzero, is a hard lifetime retirement budget — the
	// watchdog against unbounded emulations. Run never retires the
	// (MaxInstret+1)-th instruction: once Instret reaches the budget it
	// returns StopBudget, at exactly the same architectural point on both
	// engines. Zero means unbounded.
	MaxInstret uint64

	// Blocks tallies translation events for both tiers (block.go).
	Blocks BlockStats

	// TraceThreshold is the block dispatch count that promotes a chain into
	// a superblock trace (trace.go). Zero disables the trace tier; NewCPU
	// sets DefaultTraceThreshold.
	TraceThreshold uint32

	// icache is a direct-mapped decoded-instruction cache, invalidated by
	// the mapping generation and the code frame's patch generation.
	icache [4096]icacheEntry

	// bcache is the 2-way set-associative basic-block cache (block.go):
	// blockCacheSize sets of blockCacheWays ways, MRU first.
	bcache [blockCacheSize * blockCacheWays]*block

	// freeBlocks/freeTraces are the per-CPU recycling arenas: evicted and
	// invalidated translations park here (µop backing arrays intact) so
	// steady-state rebuild churn allocates nothing.
	freeBlocks []*block
	freeTraces []*trace

	// obs is the observer mask compiled into translations (hookCmp |
	// hookMem | hookProf bits, block.go). Blocks and traces record the mask
	// they were built under and are revalidated against it, so flipping
	// observers rebuilds translations instead of running stale µop streams
	// or slotless blocks. The coverage observer needs no build-time state
	// (it fires per dispatch) and so does not participate in the mask.
	obs uint8
}

// SetHooks installs an instrumentation hook set (nil uninstalls) and
// recomputes the translation observer mask. Translations built under a
// different observer set revalidate lazily — no eager cache flush.
func (c *CPU) SetHooks(h *instrument.Hooks) {
	c.Hooks = h
	c.RefreshHooks()
}

// RefreshHooks recomputes the observer mask after the installed Hooks
// value's observer fields were mutated in place.
func (c *CPU) RefreshHooks() {
	c.obs = 0
	if h := c.Hooks; h != nil {
		if h.Cmp != nil {
			c.obs |= hookCmp
		}
		if h.Mem != nil {
			c.obs |= hookMem
		}
		if h.Prof != nil {
			c.obs |= hookProf
		}
	}
}

type icacheEntry struct {
	pc     uint64
	mapGen uint64
	mem    *Memory
	pg     *Page
	pgen   uint64
	inst   riscv.Inst
	ok     bool
}

// NewCPU returns a hart with the default cost model and the trace tier
// enabled at the default promotion threshold.
func NewCPU(mem *Memory, isa riscv.Ext) *CPU {
	return &CPU{Mem: mem, ISA: isa, Cost: &DefaultCost, TraceThreshold: DefaultTraceThreshold}
}

// Reset prepares the hart to run an image: pc at the entry, sp at the stack
// top, gp at the image's anchor.
func (c *CPU) Reset(img *obj.Image) {
	c.X = [32]uint64{}
	c.F = [32]uint64{}
	c.V = [32]Vec{}
	c.VL, c.VT = 0, 0
	c.PC = img.Entry
	c.X[riscv.SP] = obj.StackTop
	c.X[riscv.GP] = img.GP
}

// fault constructs a fault stop.
func (c *CPU) fault(kind FaultKind, addr uint64, err error) (Stop, bool) {
	return Stop{Kind: StopFault, Fault: Fault{Kind: kind, PC: c.PC, Addr: addr, Err: err}}, true
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func f64b(v float64) uint64   { return math.Float64bits(v) }
func f32of(bits uint64) float32 {
	// NaN-boxed single: valid when the upper 32 bits are all ones.
	return math.Float32frombits(uint32(bits))
}
func f32b(v float32) uint64 { return 0xFFFFFFFF_00000000 | uint64(math.Float32bits(v)) }

// Sentinel fault causes for the hot paths. Fault classification carries
// Kind/PC/Addr; building a fresh message per fault would make the fault
// paths allocate, which fault-heavy guests (SMILE recovery, trampoline
// storms) would pay per event.
var (
	errFetch  = errors.New("instruction fetch")
	errFetch2 = errors.New("instruction fetch (second parcel)")
	errLoad   = errors.New("load access")
	errStore  = errors.New("store access")
)

// Step executes one instruction. It returns (stop, true) when the kernel
// must intervene; otherwise execution advanced normally.
func (c *CPU) Step() (Stop, bool) {
	if e := &c.icache[(c.PC>>1)&4095]; e.ok && e.pc == c.PC && e.mem == c.Mem &&
		e.mapGen == c.Mem.mapGen && e.pg.gen == e.pgen {
		if ext := e.inst.Extension(); !c.ISA.Has(ext) {
			return c.fault(FaultIllegal, c.PC,
				fmt.Errorf("unsupported extension %v for %s", ext, e.inst))
		}
		return c.exec(e.inst)
	}
	var ibuf [4]byte
	if fa, ok := c.Mem.Fetch(c.PC, ibuf[:2]); !ok {
		return c.fault(FaultAccess, fa, errFetch)
	}
	parcel := binary.LittleEndian.Uint16(ibuf[:2])
	ilen, err := riscv.ParcelLen(parcel)
	if err != nil {
		return c.fault(FaultIllegal, c.PC, err)
	}
	var inst riscv.Inst
	if ilen == 2 {
		inst, err = riscv.DecodeCompressed(parcel)
		if err == nil && !c.ISA.Has(riscv.ExtC) {
			err = &riscv.IllegalInstError{
				Raw: uint32(parcel), Width: 2, Reason: riscv.ErrIllegal,
				Detail: "compressed instruction on core without C",
			}
		}
	} else {
		if fa, ok := c.Mem.Fetch(c.PC+2, ibuf[2:4]); !ok {
			return c.fault(FaultAccess, fa, errFetch2)
		}
		inst, err = riscv.Decode32(binary.LittleEndian.Uint32(ibuf[:4]))
	}
	if err != nil {
		return c.fault(FaultIllegal, c.PC, err)
	}
	// Cache the decode keyed on the code frame's patch generation, so a
	// Poke through *any* address space sharing the frame invalidates it.
	// Instructions straddling a page boundary are not cached (two frames
	// would need tracking for a case that essentially never recurs hot).
	if off := c.PC & (1<<12 - 1); off+uint64(inst.Len) <= 1<<12 {
		if pg, ok := c.Mem.Page(c.PC); ok {
			c.icache[(c.PC>>1)&4095] = icacheEntry{
				pc: c.PC, mapGen: c.Mem.mapGen, mem: c.Mem,
				pg: pg, pgen: pg.gen, inst: inst, ok: true,
			}
		}
	}
	if ext := inst.Extension(); !c.ISA.Has(ext) {
		return c.fault(FaultIllegal, c.PC,
			fmt.Errorf("unsupported extension %v for %s", ext, inst))
	}
	return c.exec(inst)
}

// Run executes until a stop condition or until limit instructions retire.
// The hot path dispatches whole predecoded basic blocks (block.go); setting
// Interp forces the per-instruction reference loop instead. When MaxInstret
// is set, the per-call limit is clamped to the remaining budget, so the
// budget check costs nothing in the dispatch loops and both engines stop at
// the identical instruction.
func (c *CPU) Run(limit uint64) Stop {
	if c.MaxInstret != 0 {
		if c.Instret >= c.MaxInstret {
			return Stop{Kind: StopBudget}
		}
		if rem := c.MaxInstret - c.Instret; rem <= limit {
			stop := c.dispatch(rem)
			if stop.Kind == StopLimit && c.Instret >= c.MaxInstret {
				stop.Kind = StopBudget
			}
			return stop
		}
	}
	return c.dispatch(limit)
}

func (c *CPU) dispatch(limit uint64) Stop {
	if c.Interp {
		return c.RunInterp(limit)
	}
	return c.runBlocks(limit)
}

// RunInterp is the per-instruction reference loop — the pre-block-engine
// Run. The block engine is required to be architecturally indistinguishable
// from it (same X/F/V/PC/Instret/Cycles trajectory, same faults).
func (c *CPU) RunInterp(limit uint64) Stop {
	for n := uint64(0); n < limit; n++ {
		if stop, halted := c.Step(); halted {
			return stop
		}
	}
	return Stop{Kind: StopLimit}
}

// retire finalizes a normally-executed instruction.
func (c *CPU) retire(inst riscv.Inst, nextPC uint64, taken bool) (Stop, bool) {
	c.X[0] = 0
	c.PC = nextPC
	c.Cycles += c.Cost.Cost(inst, taken)
	c.Instret++
	c.LastInst = inst
	return Stop{}, false
}

// memLoad performs a checked n-byte little-endian load at addr, returning
// the (optionally sign-extended) value or the faulting address.
func (c *CPU) memLoad(addr uint64, n int, signed bool) (v, fa uint64, ok bool) {
	var buf [8]byte
	if fa, ok := c.Mem.Read(addr, buf[:n]); !ok {
		return 0, fa, false
	}
	v = binary.LittleEndian.Uint64(buf[:])
	if signed {
		shift := uint(64 - 8*n)
		v = uint64(int64(v<<shift) >> shift)
	}
	return v, 0, true
}

// memStore performs a checked n-byte little-endian store at addr.
func (c *CPU) memStore(addr, val uint64, n int) (fa uint64, ok bool) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	return c.Mem.Write(addr, buf[:n])
}

// The exec helpers below used to be per-call closures; they are methods so
// the interpreter and the block engine share one allocation-free hot path.

// alu writes an ALU result and retires.
func (c *CPU) alu(inst riscv.Inst, next uint64, v uint64) (Stop, bool) {
	c.X[inst.Rd] = v
	return c.retire(inst, next, false)
}

// aluW writes a sign-extended 32-bit result and retires.
func (c *CPU) aluW(inst riscv.Inst, next uint64, v int64) (Stop, bool) {
	c.X[inst.Rd] = uint64(int64(int32(v)))
	return c.retire(inst, next, false)
}

// branch retires a conditional branch. The interpreter checks the cmp
// observer at run time so both engines log identically.
func (c *CPU) branch(inst riscv.Inst, next uint64, cond bool) (Stop, bool) {
	if h := c.Hooks; h != nil && h.Cmp != nil {
		h.Cmp.Log(c.PC, c.X[inst.Rs1], c.X[inst.Rs2])
	}
	if cond {
		return c.retire(inst, c.PC+uint64(inst.Imm), true)
	}
	return c.retire(inst, next, false)
}

// execLoad retires a scalar load. Accesses are logged when attempted so a
// faulting access appears as the mem trace's final entry.
func (c *CPU) execLoad(inst riscv.Inst, next uint64, n int, signed bool) (Stop, bool) {
	addr := c.X[inst.Rs1] + uint64(inst.Imm)
	if h := c.Hooks; h != nil && h.Mem != nil {
		h.Mem.Access(c.PC, addr, uint8(n), false)
	}
	v, fa, ok := c.memLoad(addr, n, signed)
	if !ok {
		return c.fault(FaultAccess, fa, errLoad)
	}
	c.X[inst.Rd] = v
	return c.retire(inst, next, false)
}

// execStore retires a scalar store.
func (c *CPU) execStore(inst riscv.Inst, next uint64, n int) (Stop, bool) {
	addr := c.X[inst.Rs1] + uint64(inst.Imm)
	if h := c.Hooks; h != nil && h.Mem != nil {
		h.Mem.Access(c.PC, addr, uint8(n), true)
	}
	if fa, ok := c.memStore(addr, c.X[inst.Rs2], n); !ok {
		return c.fault(FaultAccess, fa, errStore)
	}
	return c.retire(inst, next, false)
}

// execJALR retires an indirect jump, routing through Hooks.Indirect.
func (c *CPU) execJALR(inst riscv.Inst, next uint64) (Stop, bool) {
	target := (c.X[inst.Rs1] + uint64(inst.Imm)) &^ 1
	if h := c.Hooks; h != nil && h.Indirect != nil {
		newTarget, extra := h.Indirect(c.PC, target)
		target = newTarget
		c.Cycles += extra
		h.IndirectCalls++
	}
	c.X[inst.Rd] = next
	return c.retire(inst, target, true)
}

func (c *CPU) exec(inst riscv.Inst) (Stop, bool) {
	x := &c.X
	rs1, rs2 := inst.Rs1, inst.Rs2
	imm := inst.Imm
	next := c.PC + uint64(inst.Len)
	s1, s2 := int64(x[rs1]), int64(x[rs2])
	u1, u2 := x[rs1], x[rs2]

	switch inst.Op {
	case riscv.LUI:
		return c.alu(inst, next, uint64(imm<<12))
	case riscv.AUIPC:
		return c.alu(inst, next, c.PC+uint64(imm<<12))
	case riscv.JAL:
		target := c.PC + uint64(imm)
		x[inst.Rd] = next
		return c.retire(inst, target, true)
	case riscv.JALR:
		return c.execJALR(inst, next)
	case riscv.BEQ:
		return c.branch(inst, next, u1 == u2)
	case riscv.BNE:
		return c.branch(inst, next, u1 != u2)
	case riscv.BLT:
		return c.branch(inst, next, s1 < s2)
	case riscv.BGE:
		return c.branch(inst, next, s1 >= s2)
	case riscv.BLTU:
		return c.branch(inst, next, u1 < u2)
	case riscv.BGEU:
		return c.branch(inst, next, u1 >= u2)
	case riscv.LB:
		return c.execLoad(inst, next, 1, true)
	case riscv.LH:
		return c.execLoad(inst, next, 2, true)
	case riscv.LW:
		return c.execLoad(inst, next, 4, true)
	case riscv.LD:
		return c.execLoad(inst, next, 8, true)
	case riscv.LBU:
		return c.execLoad(inst, next, 1, false)
	case riscv.LHU:
		return c.execLoad(inst, next, 2, false)
	case riscv.LWU:
		return c.execLoad(inst, next, 4, false)
	case riscv.SB:
		return c.execStore(inst, next, 1)
	case riscv.SH:
		return c.execStore(inst, next, 2)
	case riscv.SW:
		return c.execStore(inst, next, 4)
	case riscv.SD:
		return c.execStore(inst, next, 8)
	case riscv.ADDI:
		return c.alu(inst, next, u1+uint64(imm))
	case riscv.SLTI:
		if s1 < imm {
			return c.alu(inst, next, 1)
		}
		return c.alu(inst, next, 0)
	case riscv.SLTIU:
		if u1 < uint64(imm) {
			return c.alu(inst, next, 1)
		}
		return c.alu(inst, next, 0)
	case riscv.XORI:
		return c.alu(inst, next, u1^uint64(imm))
	case riscv.ORI:
		return c.alu(inst, next, u1|uint64(imm))
	case riscv.ANDI:
		return c.alu(inst, next, u1&uint64(imm))
	case riscv.SLLI:
		return c.alu(inst, next, u1<<uint(imm))
	case riscv.SRLI:
		return c.alu(inst, next, u1>>uint(imm))
	case riscv.SRAI:
		return c.alu(inst, next, uint64(s1>>uint(imm)))
	case riscv.ADD:
		return c.alu(inst, next, u1+u2)
	case riscv.SUB:
		return c.alu(inst, next, u1-u2)
	case riscv.SLL:
		return c.alu(inst, next, u1<<(u2&63))
	case riscv.SLT:
		if s1 < s2 {
			return c.alu(inst, next, 1)
		}
		return c.alu(inst, next, 0)
	case riscv.SLTU:
		if u1 < u2 {
			return c.alu(inst, next, 1)
		}
		return c.alu(inst, next, 0)
	case riscv.XOR:
		return c.alu(inst, next, u1^u2)
	case riscv.SRL:
		return c.alu(inst, next, u1>>(u2&63))
	case riscv.SRA:
		return c.alu(inst, next, uint64(s1>>(u2&63)))
	case riscv.OR:
		return c.alu(inst, next, u1|u2)
	case riscv.AND:
		return c.alu(inst, next, u1&u2)
	case riscv.ADDIW:
		return c.aluW(inst, next, s1+imm)
	case riscv.SLLIW:
		return c.aluW(inst, next, int64(int32(u1)<<uint(imm)))
	case riscv.SRLIW:
		return c.aluW(inst, next, int64(int32(uint32(u1)>>uint(imm))))
	case riscv.SRAIW:
		return c.aluW(inst, next, int64(int32(u1)>>uint(imm)))
	case riscv.ADDW:
		return c.aluW(inst, next, s1+s2)
	case riscv.SUBW:
		return c.aluW(inst, next, s1-s2)
	case riscv.SLLW:
		return c.aluW(inst, next, int64(int32(u1)<<(u2&31)))
	case riscv.SRLW:
		return c.aluW(inst, next, int64(int32(uint32(u1)>>(u2&31))))
	case riscv.SRAW:
		return c.aluW(inst, next, int64(int32(u1)>>(u2&31)))
	case riscv.FENCE:
		return c.retire(inst, next, false)
	case riscv.ECALL:
		// The kernel services the call and advances the pc.
		return Stop{Kind: StopEcall}, true
	case riscv.EBREAK:
		return Stop{Kind: StopBreak}, true

	case riscv.MUL:
		return c.alu(inst, next, u1*u2)
	case riscv.MULH:
		hi, _ := mul64(s1, s2)
		return c.alu(inst, next, uint64(hi))
	case riscv.MULHU:
		hi, _ := mulu64(u1, u2)
		return c.alu(inst, next, hi)
	case riscv.MULHSU:
		hi := mulhsu(s1, u2)
		return c.alu(inst, next, uint64(hi))
	case riscv.DIV:
		if s2 == 0 {
			return c.alu(inst, next, ^uint64(0))
		}
		if s1 == math.MinInt64 && s2 == -1 {
			return c.alu(inst, next, uint64(s1))
		}
		return c.alu(inst, next, uint64(s1/s2))
	case riscv.DIVU:
		if u2 == 0 {
			return c.alu(inst, next, ^uint64(0))
		}
		return c.alu(inst, next, u1/u2)
	case riscv.REM:
		if s2 == 0 {
			return c.alu(inst, next, uint64(s1))
		}
		if s1 == math.MinInt64 && s2 == -1 {
			return c.alu(inst, next, 0)
		}
		return c.alu(inst, next, uint64(s1%s2))
	case riscv.REMU:
		if u2 == 0 {
			return c.alu(inst, next, u1)
		}
		return c.alu(inst, next, u1%u2)
	case riscv.MULW:
		return c.aluW(inst, next, int64(int32(u1)*int32(u2)))
	case riscv.DIVW:
		a, b := int32(u1), int32(u2)
		if b == 0 {
			return c.alu(inst, next, ^uint64(0))
		}
		if a == math.MinInt32 && b == -1 {
			return c.aluW(inst, next, int64(a))
		}
		return c.aluW(inst, next, int64(a/b))
	case riscv.DIVUW:
		a, b := uint32(u1), uint32(u2)
		if b == 0 {
			return c.alu(inst, next, ^uint64(0))
		}
		return c.aluW(inst, next, int64(int32(a/b)))
	case riscv.REMW:
		a, b := int32(u1), int32(u2)
		if b == 0 {
			return c.aluW(inst, next, int64(a))
		}
		if a == math.MinInt32 && b == -1 {
			return c.aluW(inst, next, 0)
		}
		return c.aluW(inst, next, int64(a%b))
	case riscv.REMUW:
		a, b := uint32(u1), uint32(u2)
		if b == 0 {
			return c.aluW(inst, next, int64(int32(a)))
		}
		return c.aluW(inst, next, int64(int32(a%b)))

	case riscv.SH1ADD:
		return c.alu(inst, next, u1<<1+u2)
	case riscv.SH2ADD:
		return c.alu(inst, next, u1<<2+u2)
	case riscv.SH3ADD:
		return c.alu(inst, next, u1<<3+u2)
	case riscv.ANDN:
		return c.alu(inst, next, u1&^u2)
	case riscv.ORN:
		return c.alu(inst, next, u1|^u2)
	case riscv.XNOR:
		return c.alu(inst, next, ^(u1 ^ u2))

	default:
		return c.execFPV(inst, next)
	}
}

func mul64(a, b int64) (hi, lo int64) {
	h, l := mulu64(uint64(a), uint64(b))
	if a < 0 {
		h -= uint64(b)
	}
	if b < 0 {
		h -= uint64(a)
	}
	return int64(h), int64(l)
}

func mulu64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := al*bh + (al*bl)>>32
	tl, th := t&mask, t>>32
	tl += ah * bl
	return ah*bh + th + tl>>32, a * b
}

func mulhsu(a int64, b uint64) int64 {
	h, _ := mulu64(uint64(a), b)
	if a < 0 {
		h -= b
	}
	return int64(h)
}
