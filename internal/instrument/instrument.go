// Package instrument defines the guest instrumentation ABI: a hook set the
// emulator compiles into its basic blocks and superblock traces at
// translation time. Four observers are defined — AFL-style edge-coverage
// bitmaps, cmp-operand logging (input-to-state correspondence, the REDQUEEN
// trick), memory-access tracing, and the guest profiler's per-block cycle
// and instret counters — plus the indirect-jump interceptor that
// regeneration baselines (Safer's pointer checks) have always used.
//
// The contract that makes the emulator usable as a fuzzing backend (Icicle's
// observation) is zero-cost-when-off: a nil hook set, or a hook set with no
// observers, must compile to the exact same µop stream as an uninstrumented
// emulator and pay at most a nil check per block dispatch. All per-execution
// observer state is preallocated fixed-size storage so per-execution resets
// (Hooks.ResetState, called from kernel.Process.Reset) never allocate —
// the fuzzing loop's steady state is allocation-free like every other hot
// path in the tree. Resets also cost only what the execution recorded:
// the rings rewind a counter, and Coverage keeps a list of the cells it
// touched, so both the campaign's coverage fold and the reset visit those
// cells instead of the 64 KiB map.
//
// The package is dependency-free: the emulator feeds it, and
// internal/telemetry symbolizes and renders the profile it collects.
package instrument

const (
	// CovMapSize is the edge-coverage bitmap size (AFL's classic 64 KiB).
	// Edge indices are (cur ^ prev) masked to this range, with prev shifted
	// right one bit so A→B and B→A hash differently.
	CovMapSize = 1 << 16
	// CmpLogSize is the cmp-operand ring capacity (entries).
	CmpLogSize = 1 << 12
	// MemLogSize is the memory-access ring capacity (entries).
	MemLogSize = 1 << 12
)

// Coverage is an AFL-style edge-coverage bitmap. Edge records the
// transition into a block identified by id (a build-time hash of the block
// pc): the bitmap cell for (id ^ prev) is bumped and prev becomes id>>1.
// Counts saturate at 255 rather than wrapping so hit-count bucketing stays
// monotone.
//
// Map is written only by Edge; readers may scan it, but a cell set any
// other way is invisible to Touched, Edges and Reset. Edge lists a cell's
// index the first time the cell turns non-zero, and a cell never returns to
// zero before Reset, so the touched list holds each non-zero cell exactly
// once and cannot overflow. That is what makes an exec's coverage cost
// proportional to the edges it took: the fold reads Touched and Reset
// zeroes only those cells, instead of streaming the 64 KiB map.
type Coverage struct {
	Map  [CovMapSize]byte
	prev uint32

	touched  [CovMapSize]uint16
	nTouched int
}

// NewCoverage returns an empty coverage map.
func NewCoverage() *Coverage { return &Coverage{} }

// Edge records the transition into block id.
func (c *Coverage) Edge(id uint32) {
	i := (id ^ c.prev) & (CovMapSize - 1)
	if v := c.Map[i]; v != 255 {
		if v == 0 {
			c.touched[c.nTouched] = uint16(i)
			c.nTouched++
		}
		c.Map[i] = v + 1
	}
	c.prev = id >> 1
}

// Touched returns the indices of the non-zero cells, each once, in the
// order they first turned non-zero. The slice aliases the coverage state
// and is valid until the next Edge or Reset.
func (c *Coverage) Touched() []uint16 { return c.touched[:c.nTouched] }

// Reset clears the touched cells and the edge-chain state without
// allocating.
func (c *Coverage) Reset() {
	for _, i := range c.touched[:c.nTouched] {
		c.Map[i] = 0
	}
	c.nTouched = 0
	c.prev = 0
}

// Edges counts the populated bitmap cells (distinct edges observed).
func (c *Coverage) Edges() int { return c.nTouched }

// CmpEntry is one logged comparison: the branch pc and both operand values
// at execution time.
type CmpEntry struct {
	PC   uint64
	A, B uint64
}

// CmpLog is a fixed ring of comparison operands, fed by every conditional
// branch the translator flagged at build time. N counts all logged entries
// (it can exceed CmpLogSize; the ring keeps the most recent).
type CmpLog struct {
	Buf [CmpLogSize]CmpEntry
	N   uint64
}

// NewCmpLog returns an empty comparison log.
func NewCmpLog() *CmpLog { return &CmpLog{} }

// Log records one comparison.
func (l *CmpLog) Log(pc, a, b uint64) {
	l.Buf[l.N&(CmpLogSize-1)] = CmpEntry{PC: pc, A: a, B: b}
	l.N++
}

// Reset empties the log without allocating.
func (l *CmpLog) Reset() { l.N = 0 }

// Len reports how many entries are currently readable (at most CmpLogSize).
func (l *CmpLog) Len() int {
	if l.N > CmpLogSize {
		return CmpLogSize
	}
	return int(l.N)
}

// Entry returns readable entry i (0 ≤ i < Len()), oldest first.
func (l *CmpLog) Entry(i int) CmpEntry {
	if l.N > CmpLogSize {
		return l.Buf[(l.N+uint64(i))&(CmpLogSize-1)]
	}
	return l.Buf[i]
}

// MemEntry is one logged memory access.
type MemEntry struct {
	PC    uint64
	Addr  uint64
	Size  uint8
	Write bool
}

// MemTrace is a fixed ring of guest memory accesses, fed by every scalar
// load/store µop the translator flagged at build time. Accesses are logged
// when attempted, so a faulting access appears as the trace's final entry —
// exactly what crash triage wants to see. (The interpreter's vector
// long-tail is not traced; DESIGN.md §13 records the limitation.)
type MemTrace struct {
	Buf [MemLogSize]MemEntry
	N   uint64
}

// NewMemTrace returns an empty access trace.
func NewMemTrace() *MemTrace { return &MemTrace{} }

// Access records one attempted access.
func (t *MemTrace) Access(pc, addr uint64, size uint8, write bool) {
	t.Buf[t.N&(MemLogSize-1)] = MemEntry{PC: pc, Addr: addr, Size: size, Write: write}
	t.N++
}

// Reset empties the trace without allocating.
func (t *MemTrace) Reset() { t.N = 0 }

// Len reports how many entries are currently readable (at most MemLogSize).
func (t *MemTrace) Len() int {
	if t.N > MemLogSize {
		return MemLogSize
	}
	return int(t.N)
}

// Entry returns readable entry i (0 ≤ i < Len()), oldest first.
func (t *MemTrace) Entry(i int) MemEntry {
	if t.N > MemLogSize {
		return t.Buf[(t.N+uint64(i))&(MemLogSize-1)]
	}
	return t.Buf[i]
}

// BlockSample is the execution totals of the guest block starting at PC.
type BlockSample struct {
	PC         uint64 `json:"pc"`
	Cycles     uint64 `json:"cycles"`
	Instret    uint64 `json:"instret"`
	Dispatches uint64 `json:"dispatches"`
}

// Profile is the guest profiler: one counter slot per guest block. The
// emulator takes a block's slot when it translates the block (Slot) and
// adds each dispatch into it (Add), so the pc→slot map is read per
// translation, never per dispatch. Counts are cumulative (ResetState leaves
// them alone). Not goroutine-safe; aggregate with Merge under a lock.
type Profile struct {
	samples []BlockSample
	slots   map[uint64]int32 // block pc → index in samples
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{slots: make(map[uint64]int32)} }

// Slot returns the counter slot of the block starting at pc, adding an
// empty one the first time pc is seen.
func (p *Profile) Slot(pc uint64) int32 {
	if i, ok := p.slots[pc]; ok {
		return i
	}
	i := int32(len(p.samples))
	p.samples = append(p.samples, BlockSample{PC: pc})
	p.slots[pc] = i
	return i
}

// Add records one dispatch of the block at pc into slot: instret retired and
// cycles charged. It records nothing and reports false when slot does not
// hold pc (the block was translated under another Profile).
func (p *Profile) Add(slot int32, pc, instret, cycles uint64) bool {
	if uint(slot) >= uint(len(p.samples)) || p.samples[slot].PC != pc {
		return false
	}
	s := &p.samples[slot]
	s.Instret += instret
	s.Cycles += cycles
	s.Dispatches++
	return true
}

// Merge folds o's samples into p by pc.
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	for _, os := range o.samples {
		s := &p.samples[p.Slot(os.PC)]
		s.Cycles += os.Cycles
		s.Instret += os.Instret
		s.Dispatches += os.Dispatches
	}
}

// Samples returns a copy of every block's totals.
func (p *Profile) Samples() []BlockSample { return append([]BlockSample(nil), p.samples...) }

// Blocks returns the number of distinct blocks sampled.
func (p *Profile) Blocks() int { return len(p.samples) }

// Totals sums cycles and instret over all blocks.
func (p *Profile) Totals() (cycles, instret uint64) {
	for _, s := range p.samples {
		cycles += s.Cycles
		instret += s.Instret
	}
	return cycles, instret
}

// Hooks is the emulator's single hook registration surface.
//
// Indirect is the interceptor formerly known as emu.CPU.IndirectHook: it
// fires on every jalr before it retires, may rewrite the target and charge
// extra cycles, and is counted in IndirectCalls (the Table 2 "checks"
// metric). It is checked at run time, so installing or swapping it never
// invalidates translations — but it does veto jalr trace stitching, since a
// hook may redirect or patch code at every call.
//
// Cov, Cmp, Mem and Prof are pure observers: they cannot change guest
// behavior, so traces stitch and promote exactly as if they were absent
// (including across indirect jumps). Cmp and Mem participation is burned
// into µops, and Prof's counter slot into blocks, at translation time —
// install them through emu.CPU.SetHooks (or RefreshHooks), which keys the
// translation caches on the observer set so stale translations rebuild.
type Hooks struct {
	Indirect      func(pc, target uint64) (newTarget, extraCycles uint64)
	IndirectCalls uint64

	Cov  *Coverage
	Cmp  *CmpLog
	Mem  *MemTrace
	Prof *Profile
}

// ResetState clears per-execution observer state (coverage bitmap, cmp log,
// access trace) without allocating and without touching the registration
// itself, the cumulative IndirectCalls counter or the cumulative Prof.
func (h *Hooks) ResetState() {
	if h == nil {
		return
	}
	if h.Cov != nil {
		h.Cov.Reset()
	}
	if h.Cmp != nil {
		h.Cmp.Reset()
	}
	if h.Mem != nil {
		h.Mem.Reset()
	}
}

// Observing reports whether any pure observer is installed.
func (h *Hooks) Observing() bool {
	return h != nil && (h.Cov != nil || h.Cmp != nil || h.Mem != nil || h.Prof != nil)
}
