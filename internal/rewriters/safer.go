package rewriters

import (
	"errors"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Safer cost model: every indirect jump pays the inline encoded-pointer
// check; targets whose encoding failed statically pay the translation-table
// path on top (§2.2). The constants model the instruction sequences Safer
// inlines; the unencoded ratio reflects its static encoding hit rate.
const (
	SaferCheckCycles = 12
	SaferTableCycles = 28
	// saferUnencodedDenom: 1-in-N indirect targets take the table path.
	saferUnencodedDenom = 10
)

// ErrRewriteReject is the typed reject every rewriter entry point in this
// package returns for adversarial inputs: recovered panics and
// image-dependent analysis or regeneration failures. It aliases the chbp
// error so errors.Is works across both packages.
var ErrRewriteReject = chbp.ErrRewriteReject

// reject folds a recovered panic or a returned error into ErrRewriteReject;
// deferred at every regeneration entry point.
func reject(name string, out **Rewritten, err *error) {
	if r := recover(); r != nil {
		*out, *err = nil, fmt.Errorf("%w: %s: panic: %v", ErrRewriteReject, name, r)
		return
	}
	if *err != nil && !errors.Is(*err, ErrRewriteReject) {
		*out, *err = nil, fmt.Errorf("%w: %s: %v", ErrRewriteReject, name, *err)
	}
}

// SaferWith rewrites an image the way the Safer regeneration baseline
// does: all code is regenerated at new addresses with direct control flow
// fixed statically; every indirect jump is checked at run time and its
// target translated from the original address space. The original code
// section is dropped from the executable mapping — regeneration keeps no
// trampolines.
//
// A resolver TargetSet ts (from resolve.Resolve on the same image; nil
// means plain Safer) replaces the plain disassembly with the completed
// one (recursive descent plus every High-confidence indirect target), so
// code reachable only through jump tables is regenerated too instead of
// being dropped with the original text. Resolved targets are also
// statically encoded, shrinking Safer's runtime translation tables —
// SaferHookWith skips the table-path penalty for them.
func SaferWith(img *obj.Image, targetISA riscv.Ext, emptyPatch bool, ts *resolve.TargetSet) (out *Rewritten, err error) {
	defer reject("safer", &out, &err)
	d, recovered := decoded(img, ts)
	resolved := resolvedTargets(ts)
	rel, err := relocateAll(img, d, targetISA, emptyPatch)
	if err != nil {
		return nil, err
	}

	rw := img.Clone()
	rw.Name = img.Name + ".safer"
	// Regeneration: the original text stops being executable; stale code
	// pointers that escape the runtime check fault deterministically, which
	// mirrors Safer's "detect but cannot correct" behavior.
	for _, s := range rw.Sections {
		if s.Perm&obj.PermX != 0 {
			s.Perm = obj.PermR
		}
	}

	tables := chbp.NewTables(img.GP)
	if err := rel.install(rw, img, tables, targetISA, emptyPatch); err != nil {
		return nil, err
	}
	return &Rewritten{
		Image:    rw,
		Tables:   tables,
		AddrMap:  rel.addrMap,
		Resolved: resolved,
		Stats: Stats{Insts: len(d.Order), NewCodeBytes: len(rel.code),
			RecoveredInsts: recovered, ResolvedTargets: len(resolved)},
		saferChecks: true,
	}, nil
}

// decoded returns the disassembly a baseline relocates and how many of its
// instructions only the resolver's roots reached. With a TargetSet that is
// the resolver's completed disassembly, compared against its first, plain
// iteration; the image is not decoded again.
func decoded(img *obj.Image, ts *resolve.TargetSet) (*dis.Result, int) {
	if ts == nil {
		return dis.Disassemble(img), 0
	}
	return ts.Dis, len(ts.Dis.Order) - len(ts.Plain.Order)
}

// resolvedTargets collects the High-confidence targets of a TargetSet as
// a set of original addresses, or nil.
func resolvedTargets(ts *resolve.TargetSet) map[uint64]bool {
	if ts == nil {
		return nil
	}
	out := make(map[uint64]bool)
	for _, s := range ts.Sites {
		for _, t := range s.Targets {
			if t.Tier == resolve.TierHigh {
				out[t.Addr] = true
			}
		}
	}
	return out
}

// SaferHook builds the per-CPU indirect-jump hook realizing Safer's runtime
// pointer checks: targets inside the original text range are translated to
// their regenerated addresses. textStart/textEnd bound the original code.
func SaferHook(addrMap map[uint64]uint64, textStart, textEnd uint64) func(pc, target uint64) (uint64, uint64) {
	return SaferHookWith(addrMap, textStart, textEnd, nil)
}

// SaferHookWith is SaferHook with the resolver's statically-encoded
// target set: a resolved target's translation was encoded at rewrite
// time, so it never takes the table path regardless of the encoding
// hit-rate model.
func SaferHookWith(addrMap map[uint64]uint64, textStart, textEnd uint64, resolved map[uint64]bool) func(pc, target uint64) (uint64, uint64) {
	return func(pc, target uint64) (uint64, uint64) {
		cost := uint64(SaferCheckCycles)
		if target >= textStart && target < textEnd {
			if nt, ok := addrMap[target]; ok {
				if !resolved[target] && (target>>1)%saferUnencodedDenom == 0 {
					cost += SaferTableCycles // unencoded: table path
				}
				return nt, cost
			}
		}
		return target, cost
	}
}
