package rewriters

import (
	"fmt"

	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

// Options configures one rewrite through the registry. Methods ignore the
// knobs they lack: the ablations are CHBP's.
type Options struct {
	// Target is the extension set of the core the output must run on.
	Target riscv.Ext
	// EmptyPatch replicates source instructions instead of translating
	// them (the §6.2 methodology: overhead comes only from rewriting).
	EmptyPatch bool
	// Resolve runs the static indirect-target resolver once, seeds the
	// rewriter with its TargetSet, and reports its summary in the stats.
	Resolve bool

	DisableExitShift bool // ablation A2
	DisableBatching  bool // ablation A3
	DisableUpgrade   bool // no idiom upgrading
}

// Rewritten is a completed rewrite by any registered method.
type Rewritten struct {
	Image  *obj.Image
	Tables *chbp.Tables
	// AddrMap maps original to relocated instruction addresses (Safer and
	// ARMore). The kernel's Safer hook consults it.
	AddrMap map[uint64]uint64
	// Resolved is the set of High-confidence indirect targets (original
	// addresses) the resolver recovered, when the rewrite was seeded with
	// one (SaferWith/ARMoreWith). The Safer hook skips the translation
	// table-path penalty for them.
	Resolved map[uint64]bool
	// Stats summarizes the rewrite.
	Stats Stats

	// saferChecks: running the image needs Safer's runtime pointer checks.
	saferChecks bool
}

// Stats is the union of every method's rewrite counters; a method leaves
// the ones it has no use for zero. The JSON form is what the service
// returns and stores, so the tags and field order are a wire format.
type Stats struct {
	// CHBP and the strawman (chbp.Stats).
	TotalInsts   int     `json:"total_insts,omitempty"`
	SourceInsts  int     `json:"source_insts,omitempty"`
	ExtPct       float64 `json:"ext_pct,omitempty"`
	Sites        int     `json:"sites,omitempty"`
	SmileEntries int     `json:"smile_entries,omitempty"`
	TrapEntries  int     `json:"trap_entries,omitempty"`
	TrapExits    int     `json:"trap_exits,omitempty"`
	UpgradeSites int     `json:"upgrade_sites,omitempty"`
	TargetBytes  int     `json:"target_bytes,omitempty"`

	// The regeneration baselines.
	Trampolines     int `json:"trampolines,omitempty"`      // single-inst trampolines placed (ARMore)
	TrapTrampolines int `json:"trap_trampolines,omitempty"` // trampolines that had to be trap-based
	Insts           int `json:"insts,omitempty"`
	NewCodeBytes    int `json:"new_code_bytes,omitempty"`

	// Resolver integration (Options.Resolve).
	ResolvedSites        int `json:"resolved_sites,omitempty"`
	ResolvedTargets      int `json:"resolved_targets,omitempty"`
	RecoveredInsts       int `json:"recovered_insts,omitempty"` // instructions only the resolver's roots reached
	PrematerializedSites int `json:"prematerialized_sites,omitempty"`
	AvoidedRewrites      int `json:"avoided_rewrites,omitempty"`
	// Resolve is the per-tier site/target breakdown of the resolver pass.
	Resolve *resolve.Summary `json:"resolve,omitempty"`
}

// Variant is the kernel view that runs the rewritten image on a core of
// its ISA. This is the one place that knows Safer's views install the
// runtime pointer-check hook, with the resolver's statically encoded
// targets exempt from its table path.
func (r *Rewritten) Variant() kernel.Variant {
	v := kernel.Variant{ISA: r.Image.ISA, Image: r.Image, Tables: r.Tables, AddrMap: r.AddrMap}
	if r.saferChecks {
		v.SaferChecks, v.SaferResolved = true, r.Resolved
	}
	return v
}

// Method is one registered rewriter.
type Method struct {
	Name string
	// Triggers reads the method's §6.2 "fault handling trigger count"
	// (Table 2) off a finished process's counters.
	Triggers func(kernel.Counters) uint64
	rewrite  func(img *obj.Image, o Options, ts *resolve.TargetSet) (*Rewritten, error)
}

// registry lists the rewriters the paper compares (§6.2), in its
// presentation order.
var registry = []Method{
	{
		Name:     "strawman",
		Triggers: func(c kernel.Counters) uint64 { return c.Traps },
		rewrite:  chbpWith(chbp.TrapEntry),
	},
	{
		Name:     "safer",
		Triggers: func(c kernel.Counters) uint64 { return c.Checks },
		rewrite: func(img *obj.Image, o Options, ts *resolve.TargetSet) (*Rewritten, error) {
			return SaferWith(img, o.Target, o.EmptyPatch, ts)
		},
	},
	{
		Name:     "armore",
		Triggers: func(c kernel.Counters) uint64 { return c.Traps },
		rewrite: func(img *obj.Image, o Options, ts *resolve.TargetSet) (*Rewritten, error) {
			return ARMoreWith(img, o.Target, o.EmptyPatch, ts)
		},
	},
	{
		Name:     "chbp",
		Triggers: func(c kernel.Counters) uint64 { return c.FaultRecoveries + c.Traps },
		rewrite:  chbpWith(chbp.SMILE),
	},
}

// chbpWith runs CHBP with the given entry trampoline.
func chbpWith(kind chbp.TrampolineKind) func(*obj.Image, Options, *resolve.TargetSet) (*Rewritten, error) {
	return func(img *obj.Image, o Options, ts *resolve.TargetSet) (*Rewritten, error) {
		return FromCHBP(chbp.RewriteWith(img, chbp.Options{
			TargetISA:        o.Target,
			Trampoline:       kind,
			DisableExitShift: o.DisableExitShift,
			DisableBatching:  o.DisableBatching,
			DisableUpgrade:   o.DisableUpgrade,
			EmptyPatch:       o.EmptyPatch,
			Resolve:          o.Resolve,
		}, ts))
	}
}

// FromCHBP reshapes a direct chbp rewrite into the registry's result, for
// the CHBP configurations the registry does not list (e.g. the Fig. 5
// general-register trampoline).
func FromCHBP(res *chbp.Result, err error) (*Rewritten, error) {
	if err != nil {
		return nil, err
	}
	st := res.Stats
	return &Rewritten{Image: res.Image, Tables: res.Tables, Stats: Stats{
		TotalInsts: st.TotalInsts, SourceInsts: st.SourceInsts, ExtPct: st.ExtPct,
		Sites: st.Sites, SmileEntries: st.SmileEntries, TrapEntries: st.TrapEntries,
		TrapExits: st.TrapExits, UpgradeSites: st.UpgradeSites, TargetBytes: st.TargetBytes,
		ResolvedSites: st.ResolvedSites, ResolvedTargets: st.ResolvedTargets,
		RecoveredInsts: st.RecoveredInsts, PrematerializedSites: st.PrematerializedSites,
		AvoidedRewrites: st.AvoidedRewrites,
	}}, nil
}

// Methods lists the registered method names in presentation order.
func Methods() []string {
	names := make([]string, len(registry))
	for i, m := range registry {
		names[i] = m.Name
	}
	return names
}

// Lookup finds a registered method by name.
func Lookup(name string) (Method, bool) {
	for _, m := range registry {
		if m.Name == name {
			return m, true
		}
	}
	return Method{}, false
}

// Rewrite rewrites img with the named method. It is the single entry
// point the service, the evaluation matrix, the fuzz oracle, the figure
// harnesses and the CLI share; with o.Resolve set the resolver runs
// exactly once, here. Each rewriter recovers its own panics into
// ErrRewriteReject; the resolver pass runs outside that boundary, so a
// resolver panic reaches the caller's panic boundary as a bug, not as a
// refusal.
func Rewrite(img *obj.Image, method string, o Options) (*Rewritten, error) {
	return RewriteWith(img, method, o, nil)
}

// RewriteWith is Rewrite reusing a TargetSet the caller already computed
// with resolve.Resolve on the same image, so one resolver pass can seed
// several rewrites. ts is used only when o.Resolve is set; nil means
// resolve here.
func RewriteWith(img *obj.Image, method string, o Options, ts *resolve.TargetSet) (*Rewritten, error) {
	m, ok := Lookup(method)
	if !ok {
		return nil, fmt.Errorf("rewriters: unknown method %q (want one of %v)", method, Methods())
	}
	if !o.Resolve {
		ts = nil
	} else if ts == nil {
		ts = resolve.Resolve(img)
	}
	out, err := m.rewrite(img, o, ts)
	if err != nil {
		return nil, err
	}
	if ts != nil {
		sum := ts.Summary()
		out.Stats.Resolve = &sum
	}
	return out, nil
}
