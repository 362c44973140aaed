package instrument

import (
	"math/rand"
	"testing"
)

func TestCoverageEdgeHashing(t *testing.T) {
	c := NewCoverage()
	c.Edge(0x1234)
	c.Edge(0x5678)
	forward := c.Edges()
	if forward != 2 {
		t.Fatalf("two distinct edges expected, got %d", forward)
	}

	// A→B and B→A must land in different cells (prev is shifted).
	c2 := NewCoverage()
	c2.Edge(0x5678)
	c2.Edge(0x1234)
	same := 0
	for i := range c.Map {
		if c.Map[i] != 0 && c2.Map[i] != 0 {
			same++
		}
	}
	if same == 2 {
		t.Fatal("A→B and B→A hashed to the same cells")
	}
}

func TestCoverageSaturates(t *testing.T) {
	c := NewCoverage()
	for i := 0; i < 300; i++ {
		c.Edge(7)
		c.prev = 0 // same edge every time
	}
	if got := c.Map[7]; got != 255 {
		t.Fatalf("count should saturate at 255, got %d", got)
	}
}

func TestCoverageResetNoAlloc(t *testing.T) {
	c := NewCoverage()
	c.Edge(1)
	c.Edge(2)
	allocs := testing.AllocsPerRun(10, func() { c.Reset() })
	if allocs != 0 {
		t.Fatalf("Coverage.Reset allocates: %v allocs/op", allocs)
	}
	if c.Edges() != 0 || c.prev != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// TestCoverageTouchedList checks the touched-cell list against the map it
// summarizes: after random Edge sequences — clustered on a few ids, spread
// over the whole map, and long enough to saturate cells — interleaved with
// Resets, Touched lists every non-zero cell exactly once, Edges equals the
// full-map count, and Reset leaves the whole map zero.
func TestCoverageTouchedList(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewCoverage()
	for round := 0; round < 200; round++ {
		ids := 1 + rng.Intn(1<<uint(rng.Intn(17)))
		for n := rng.Intn(5000); n > 0; n-- {
			c.Edge(uint32(rng.Intn(ids)) * 0x9E3779B1)
		}
		seen := make(map[uint16]bool)
		for _, i := range c.Touched() {
			if seen[i] {
				t.Fatalf("round %d: cell %d listed twice", round, i)
			}
			seen[i] = true
			if c.Map[i] == 0 {
				t.Fatalf("round %d: listed cell %d is zero", round, i)
			}
		}
		nonZero := 0
		for i, v := range c.Map {
			if v != 0 {
				nonZero++
				if !seen[uint16(i)] {
					t.Fatalf("round %d: non-zero cell %d not listed", round, i)
				}
			}
		}
		if c.Edges() != nonZero || len(c.Touched()) != nonZero {
			t.Fatalf("round %d: Edges %d, Touched %d, non-zero cells %d",
				round, c.Edges(), len(c.Touched()), nonZero)
		}
		if rng.Intn(3) != 0 {
			c.Reset()
			if c.Map != ([CovMapSize]byte{}) || c.Edges() != 0 || len(c.Touched()) != 0 || c.prev != 0 {
				t.Fatalf("round %d: Reset left state behind", round)
			}
		}
	}
}

func TestCmpLogRing(t *testing.T) {
	l := NewCmpLog()
	for i := 0; i < CmpLogSize+10; i++ {
		l.Log(uint64(i), uint64(i)*2, uint64(i)*3)
	}
	if l.Len() != CmpLogSize {
		t.Fatalf("Len = %d, want %d", l.Len(), CmpLogSize)
	}
	// Oldest readable entry is entry 10 (the first 10 were overwritten).
	if got := l.Entry(0); got.PC != 10 {
		t.Fatalf("oldest entry PC = %d, want 10", got.PC)
	}
	if got := l.Entry(l.Len() - 1); got.PC != CmpLogSize+9 {
		t.Fatalf("newest entry PC = %d, want %d", got.PC, CmpLogSize+9)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not clear log")
	}
}

func TestMemTraceRing(t *testing.T) {
	m := NewMemTrace()
	m.Access(0x100, 0x2000, 8, false)
	m.Access(0x104, 0x2008, 4, true)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	e := m.Entry(1)
	if e.PC != 0x104 || e.Addr != 0x2008 || e.Size != 4 || !e.Write {
		t.Fatalf("unexpected entry: %+v", e)
	}
	allocs := testing.AllocsPerRun(10, func() { m.Reset() })
	if allocs != 0 {
		t.Fatalf("MemTrace.Reset allocates: %v allocs/op", allocs)
	}
}

func TestHooksResetState(t *testing.T) {
	var nilHooks *Hooks
	nilHooks.ResetState() // must not panic

	h := &Hooks{Cov: NewCoverage(), Cmp: NewCmpLog(), Mem: NewMemTrace()}
	h.IndirectCalls = 42
	h.Cov.Edge(1)
	h.Cmp.Log(1, 2, 3)
	h.Mem.Access(1, 2, 8, false)
	allocs := testing.AllocsPerRun(10, func() { h.ResetState() })
	if allocs != 0 {
		t.Fatalf("Hooks.ResetState allocates: %v allocs/op", allocs)
	}
	if h.Cov.Edges() != 0 || h.Cmp.Len() != 0 || h.Mem.Len() != 0 {
		t.Fatal("ResetState did not clear observer state")
	}
	if h.IndirectCalls != 42 {
		t.Fatal("ResetState must not touch the cumulative IndirectCalls counter")
	}
}

func TestObserving(t *testing.T) {
	var nilHooks *Hooks
	if nilHooks.Observing() {
		t.Fatal("nil hooks observing")
	}
	h := &Hooks{Indirect: func(pc, t uint64) (uint64, uint64) { return t, 0 }}
	if h.Observing() {
		t.Fatal("indirect-only hooks are not observers")
	}
	h.Cov = NewCoverage()
	if !h.Observing() {
		t.Fatal("coverage installed but not observing")
	}
}

// TestProfileSlots checks the profile's slot contract: one slot per block
// pc, a dispatch adds into its slot, a slot that does not hold the pc is
// refused without recording, and ResetState leaves the cumulative counts
// alone.
func TestProfileSlots(t *testing.T) {
	p := NewProfile()
	a, b := p.Slot(0x100), p.Slot(0x200)
	if a == b || p.Slot(0x100) != a {
		t.Fatalf("slots a=%d b=%d, re-slot a=%d", a, b, p.Slot(0x100))
	}
	for _, d := range []struct {
		slot     int32
		pc       uint64
		accepted bool
	}{
		{a, 0x100, true},
		{a, 0x100, true},
		{b, 0x200, true},
		{7, 0x300, false},  // a slot of some other profile: out of range here
		{a, 0x200, false},  // slot a holds 0x100
		{-1, 0x100, false}, // never a slot
	} {
		if got := p.Add(d.slot, d.pc, 4, 10); got != d.accepted {
			t.Errorf("Add(slot %d, pc %#x) = %t, want %t", d.slot, d.pc, got, d.accepted)
		}
	}
	allocs := testing.AllocsPerRun(10, func() { p.Add(b, 0x200, 0, 0) })
	if allocs != 0 {
		t.Fatalf("Profile.Add allocates: %v allocs/op", allocs)
	}
	h := &Hooks{Prof: p}
	h.ResetState()
	if !h.Observing() {
		t.Fatal("profiler installed but not observing")
	}
	want := []BlockSample{
		{PC: 0x100, Cycles: 20, Instret: 8, Dispatches: 2},
		{PC: 0x200, Cycles: 10, Instret: 4, Dispatches: 1 + 11},
	}
	got := p.Samples()
	if len(got) != len(want) {
		t.Fatalf("samples = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if c, n := p.Totals(); c != 30 || n != 12 {
		t.Errorf("totals = (%d, %d), want (30, 12)", c, n)
	}
}
