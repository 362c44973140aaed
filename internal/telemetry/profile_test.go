package telemetry

import (
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
)

// sample records one dispatch of the block at pc the way the emulator does:
// a slot assigned at translation, then an add per dispatch.
func sample(p *instrument.Profile, pc, instret, cycles uint64) {
	p.Add(p.Slot(pc), pc, instret, cycles)
}

func TestGuestProfilerTopAndTotals(t *testing.T) {
	p := instrument.NewProfile()
	// Hot block at 0x100: 10 dispatches of 8 instructions, 2 cycles each.
	for i := 0; i < 10; i++ {
		sample(p, 0x100, 8, 16)
	}
	sample(p, 0x200, 4, 4)
	sample(p, 0x300, 2, 2)

	if p.Blocks() != 3 {
		t.Fatalf("blocks = %d, want 3", p.Blocks())
	}
	cycles, instret := p.Totals()
	if cycles != 166 || instret != 86 {
		t.Errorf("totals = (%d, %d), want (166, 86)", cycles, instret)
	}
	top := Top(p, 2)
	if len(top) != 2 || top[0].PC != 0x100 || top[1].PC != 0x200 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Cycles != 160 || top[0].Instret != 80 || top[0].Dispatches != 10 {
		t.Errorf("hot block = %+v", top[0])
	}
	// Ties break by pc ascending.
	q := instrument.NewProfile()
	sample(q, 0x20, 1, 5)
	sample(q, 0x10, 1, 5)
	if tt := Top(q, 0); tt[0].PC != 0x10 || tt[1].PC != 0x20 {
		t.Errorf("tie order = %+v", tt)
	}
}

func TestGuestProfilerMerge(t *testing.T) {
	a := instrument.NewProfile()
	sample(a, 0x100, 2, 4)
	b := instrument.NewProfile()
	sample(b, 0x100, 3, 6)
	sample(b, 0x200, 1, 1)
	a.Merge(b)
	a.Merge(nil)
	cycles, instret := a.Totals()
	if cycles != 11 || instret != 6 {
		t.Errorf("merged totals = (%d, %d), want (11, 6)", cycles, instret)
	}
	if a.Blocks() != 2 {
		t.Errorf("merged blocks = %d, want 2", a.Blocks())
	}
	if hot := Top(a, 1)[0]; hot.PC != 0x100 || hot.Dispatches != 2 {
		t.Errorf("merged hot = %+v", hot)
	}
}

func TestSymTableResolve(t *testing.T) {
	st := NewSymTable([]obj.Symbol{
		{Name: "main", Addr: 0x1000, Size: 0x100},
		{Name: "helper", Addr: 0x2000}, // size 0: extends to next
		{Name: "tail", Addr: 0x3000},   // size 0, last: unbounded
	})
	cases := []struct {
		pc   uint64
		want string
	}{
		{0x1000, "main"},
		{0x1040, "main+0x40"},
		{0x10ff, "main+0xff"},
		{0x1100, "0x1100"}, // past main's size, before helper
		{0x2000, "helper"},
		{0x2fff, "helper+0xfff"},
		{0x3000, "tail"},
		{0x9999, "tail+0x6999"},
		{0x10, "0x10"}, // before all symbols
	}
	for _, c := range cases {
		if got := st.Location(c.pc); got != c.want {
			t.Errorf("Location(%#x) = %q, want %q", c.pc, got, c.want)
		}
	}
	var nilTable *SymTable
	if got := nilTable.Location(0x42); got != "0x42" {
		t.Errorf("nil table Location = %q", got)
	}
}

func TestReportAndFoldedStacks(t *testing.T) {
	p := instrument.NewProfile()
	sample(p, 0x1010, 8, 75)
	sample(p, 0x1000, 2, 25)
	st := NewSymTable([]obj.Symbol{{Name: "main", Addr: 0x1000}})

	rep := Report(p, st, 10)
	if len(rep) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep[0].Rank != 1 || rep[0].Location != "main+0x10" || rep[0].CyclePct != 75 {
		t.Errorf("rep[0] = %+v", rep[0])
	}
	if rep[1].Rank != 2 || rep[1].Location != "main" || rep[1].CyclePct != 25 {
		t.Errorf("rep[1] = %+v", rep[1])
	}

	var tbl strings.Builder
	WriteTable(&tbl, p, st, 10)
	out := tbl.String()
	if !strings.Contains(out, "main+0x10") || !strings.Contains(out, "75.0%") {
		t.Errorf("table output:\n%s", out)
	}

	var folded strings.Builder
	FoldedStacks(&folded, "matmul", p, st)
	want := "matmul;main 25\nmatmul;main+0x10 75\n"
	if folded.String() != want {
		t.Errorf("folded = %q, want %q", folded.String(), want)
	}
}
