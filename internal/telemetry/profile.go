package telemetry

// Guest-profile reports: rank the per-block samples an
// instrument.Profile collected from the emulator, symbolize them against an
// image's function symbols, and emit both a top-N table and folded-stack
// flamegraph lines.

import (
	"fmt"
	"io"
	"sort"

	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/obj"
)

// Top returns up to n of p's samples ranked by cycles (descending), ties
// broken by pc so the ranking is deterministic. n <= 0 returns them all.
func Top(p *instrument.Profile, n int) []instrument.BlockSample {
	out := p.Samples()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// --- Symbolization -------------------------------------------------------

// SymTable resolves guest addresses to function-relative names.
type SymTable struct {
	syms []obj.Symbol // sorted by Addr
}

// NewSymTable builds a table from function symbols (any order).
func NewSymTable(syms []obj.Symbol) *SymTable {
	t := &SymTable{syms: append([]obj.Symbol(nil), syms...)}
	sort.Slice(t.syms, func(i, j int) bool { return t.syms[i].Addr < t.syms[j].Addr })
	return t
}

// Resolve maps pc to the containing symbol and offset. A symbol with Size 0
// extends to the next symbol's start (or unbounded for the last one).
func (t *SymTable) Resolve(pc uint64) (name string, off uint64, ok bool) {
	if t == nil || len(t.syms) == 0 {
		return "", 0, false
	}
	i := sort.Search(len(t.syms), func(i int) bool { return t.syms[i].Addr > pc })
	if i == 0 {
		return "", 0, false
	}
	s := t.syms[i-1]
	if s.Size > 0 && pc >= s.Addr+s.Size {
		return "", 0, false
	}
	if s.Size == 0 && i < len(t.syms) && pc >= t.syms[i].Addr {
		return "", 0, false
	}
	return s.Name, pc - s.Addr, true
}

// SymTableOf builds the symbolizer for the function symbols of imgs (nil
// entries are skipped). It returns nil when there are none.
func SymTableOf(imgs ...*obj.Image) *SymTable {
	var syms []obj.Symbol
	for _, img := range imgs {
		if img != nil {
			syms = append(syms, img.FuncSymbols()...)
		}
	}
	if len(syms) == 0 {
		return nil
	}
	return NewSymTable(syms)
}

// Location renders pc as "sym+0xoff" (or "0xpc" when unresolvable).
func (t *SymTable) Location(pc uint64) string {
	if name, off, ok := t.Resolve(pc); ok {
		if off == 0 {
			return name
		}
		return fmt.Sprintf("%s+%#x", name, off)
	}
	return fmt.Sprintf("%#x", pc)
}

// --- Reports -------------------------------------------------------------

// HotBlock is one symbolized entry of the profile report.
type HotBlock struct {
	Rank       int     `json:"rank"`
	PC         uint64  `json:"pc"`
	Location   string  `json:"location"` // sym+0xoff
	Cycles     uint64  `json:"cycles"`
	CyclePct   float64 `json:"cycle_pct"`
	Instret    uint64  `json:"instret"`
	Dispatches uint64  `json:"dispatches"`
}

// Report symbolizes p's top-n blocks against st (which may be nil).
func Report(p *instrument.Profile, st *SymTable, n int) []HotBlock {
	total, _ := p.Totals()
	top := Top(p, n)
	out := make([]HotBlock, len(top))
	for i, s := range top {
		hb := HotBlock{
			Rank: i + 1, PC: s.PC, Location: st.Location(s.PC),
			Cycles: s.Cycles, Instret: s.Instret, Dispatches: s.Dispatches,
		}
		if total > 0 {
			hb.CyclePct = 100 * float64(s.Cycles) / float64(total)
		}
		out[i] = hb
	}
	return out
}

// WriteTable renders p's top-n report as an aligned text table.
func WriteTable(w io.Writer, p *instrument.Profile, st *SymTable, n int) {
	fmt.Fprintf(w, "%4s  %-12s  %-28s  %12s  %6s  %12s  %10s\n",
		"rank", "pc", "location", "cycles", "cyc%", "instret", "dispatches")
	for _, hb := range Report(p, st, n) {
		fmt.Fprintf(w, "%4d  %#-12x  %-28s  %12d  %5.1f%%  %12d  %10d\n",
			hb.Rank, hb.PC, hb.Location, hb.Cycles, hb.CyclePct, hb.Instret, hb.Dispatches)
	}
}

// FoldedStacks emits one flamegraph-folded line per block of p —
// "root;location cycles" — sorted by location for deterministic output.
// Feed the result to any flamegraph renderer (e.g. flamegraph.pl).
func FoldedStacks(w io.Writer, root string, p *instrument.Profile, st *SymTable) {
	samples := p.Samples()
	lines := make([]string, 0, len(samples))
	for _, s := range samples {
		lines = append(lines, fmt.Sprintf("%s;%s %d", root, st.Location(s.PC), s.Cycles))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
