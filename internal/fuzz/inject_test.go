package fuzz

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// corruptedStrawmanDiff rewrites the spec with the all-trap strawman
// patcher, then deletes the lowest-addressed trap-table entry — the classic
// rewriter bug of a skipped fault-table row. It returns the divergence the
// oracle observes against the pristine original, or nil if the corruption
// went unnoticed.
func corruptedStrawmanDiff(s Spec) (*Divergence, error) {
	img, budget, err := s.Assemble()
	if err != nil {
		return nil, err
	}
	res, err := rewriters.Rewrite(img, "strawman", rewriters.Options{Target: riscv.RV64GC})
	if err != nil {
		return nil, err
	}
	var low uint64
	for a := range res.Tables.Trap {
		if low == 0 || a < low {
			low = a
		}
	}
	if low == 0 {
		return nil, nil // nothing to corrupt: no trap entries
	}
	delete(res.Tables.Trap, low)

	v, err := kernel.VariantFromImage(img)
	if err != nil {
		return nil, err
	}
	ref, err := newProc(v, img.ISA, false)
	if err != nil {
		return nil, err
	}
	hang, simErr := runToEnd(ref, budget)
	if hang || simErr != nil {
		return nil, nil // reference itself unusable; not a corruption signal
	}
	rref := report("original", ref, img, hang, simErr)
	c := candidate{
		name:    "strawman-corrupt",
		variant: kernel.Variant{ISA: res.Image.ISA, Image: res.Image, Tables: res.Tables},
		coreISA: riscv.RV64GC,
	}
	return diffVariantRun(&s, img, budget, rref, c)
}

// TestInjectedBugCaught verifies the end-to-end promise of the subsystem: a
// deliberately broken rewrite (one skipped fault-table entry) is detected by
// the differential oracle, and the spec-level minimizer shrinks the
// reproducer to a handful of instructions.
func TestInjectedBugCaught(t *testing.T) {
	spec := Generate(4, DefaultConfig())
	keep := func(s Spec) bool {
		d, err := corruptedStrawmanDiff(s)
		return err == nil && d != nil
	}
	if !keep(spec) {
		t.Fatal("injected trap-table corruption was not detected")
	}
	min := Minimize(spec, keep)
	n, err := min.BodyInsts()
	if err != nil {
		t.Fatal(err)
	}
	if n > 20 {
		t.Errorf("minimized reproducer has %d body instructions, want <= 20", n)
	}
	d, err := corruptedStrawmanDiff(min)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("minimized spec no longer reproduces the injected bug")
	}
	t.Logf("minimized to %d body insts: %s", n, d.Detail)
}
