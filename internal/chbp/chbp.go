package chbp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/eurosys26p57/chimera/internal/cfg"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/liveness"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/translate"
)

// Options configures a rewrite. The zero value (plus a TargetISA) gives the
// paper's full CHBP: SMILE trampolines, exit-position shifting, and
// basic-block batching enabled.
type Options struct {
	// TargetISA is the extension set of the core the rewritten binary must
	// run on. Instructions outside it are downgraded; idioms upgradable to
	// extensions in it (that the original lacks) are upgraded.
	TargetISA riscv.Ext
	// Trampoline selects SMILE (default) or the strawman all-trap entry.
	Trampoline TrampolineKind
	// DisableExitShift turns off exit-position shifting (ablation A2).
	DisableExitShift bool
	// DisableBatching turns off basic-block batching (ablation A3).
	DisableBatching bool
	// DisableUpgrade turns off idiom upgrading even when the target ISA has
	// spare extensions.
	DisableUpgrade bool
	// EmptyPatch replicates source instructions instead of translating them
	// (the §6.2 evaluation methodology: overhead comes only from rewriting).
	EmptyPatch bool
	// MaxShift bounds exit-position shifting; 0 means the default (16).
	MaxShift int
	// MaxBatchGap bounds how many non-source instructions batching may copy
	// between two sources; 0 means the default (10).
	MaxBatchGap int
	// Resolve runs the static indirect-target resolver (internal/resolve)
	// first and rewrites the code it recovers: sites in recovered regions
	// get their fault-table rows pre-materialized behind trap entries, so
	// jump-table arms that would otherwise be runtime-rewritten fault by
	// fault (§4.3) are translated ahead of time.
	Resolve bool
}

// Stats reports what the rewrite did — the Table 3 columns plus internals.
type Stats struct {
	CodeSize    int     // original executable bytes
	TotalInsts  int     // recognized instructions
	SourceInsts int     // instructions needing rewrite
	ExtPct      float64 // SourceInsts / TotalInsts * 100

	Sites        int // patch sites (trampolines placed)
	SmileEntries int
	TrapEntries  int // entry via ebreak (space not found / strawman)
	TrapExits    int // exits via ebreak (no dead register even after shifting)

	DeadRegFailTraditional int // sites where plain liveness found no dead register
	DeadRegFailShifted     int // sites where even exit shifting failed

	UpgradeSites int
	BlockInsts   int    // total generated target-block instructions
	PaddingBytes uint64 // inter-block layout padding from compressed-mode constraints
	TargetBytes  int    // generated target-section size
	RedirectKeys int

	// Resolver integration (Options.Resolve).
	ResolvedSites        int // indirect sites resolved High/exhaustive
	ResolvedTargets      int // High-confidence targets across those sites
	RecoveredInsts       int // instructions reachable only through resolved targets
	PrematerializedSites int // trap sites in recovered code with pre-built fault-table rows
	AvoidedRewrites      int // runtime-rewrite faults those rows avoid (unique source pcs)
}

// Result is a completed rewrite.
type Result struct {
	Image  *obj.Image
	Tables *Tables
	Stats  Stats
}

// siteSeed is a source instruction group before space scanning.
type siteSeed struct {
	start     uint64
	regionEnd uint64
	upgrade   *translate.UpgradeSite
}

// ErrRewriteReject marks an input the rewriter refused: a recovered panic
// or an image-dependent failure while analyzing or regenerating code.
// Rejects are a clean, deterministic function of the input image — callers
// (the service worker path, the evaluation matrix) treat them as "this
// binary stays original", never as transient infrastructure faults worth a
// retry or a circuit-breaker strike.
var ErrRewriteReject = errors.New("rewrite rejected")

// Rewrite produces a rewritten binary for the target ISA (§3.4): step 1
// generates target instructions, step 2 patches trampolines. Adversarial
// images never panic out of here: any panic or image-dependent error is
// folded into ErrRewriteReject, so callers see a typed reject instead of a
// crash.
func Rewrite(img *obj.Image, opts Options) (*Result, error) {
	return RewriteWith(img, opts, nil)
}

// RewriteWith is Rewrite seeded with a resolver TargetSet, for callers
// that already ran the resolver (for its summary, or to share one pass
// across rewriters): ts came from resolve.Resolve on the same image and
// implies opts.Resolve. With ts nil, opts.Resolve runs the resolver here.
func RewriteWith(img *obj.Image, opts Options, ts *resolve.TargetSet) (res *Result, err error) {
	if opts.TargetISA == 0 {
		return nil, fmt.Errorf("chbp: no target ISA")
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: chbp: panic: %v", ErrRewriteReject, r)
		}
	}()
	if ts == nil && opts.Resolve {
		ts = resolve.Resolve(img)
	}
	res, err = rewrite(img, opts, ts)
	if err != nil && !errors.Is(err, ErrRewriteReject) {
		res, err = nil, fmt.Errorf("%w: %v", ErrRewriteReject, err)
	}
	return res, err
}

func rewrite(img *obj.Image, opts Options, ts *resolve.TargetSet) (*Result, error) {
	if opts.MaxShift == 0 {
		opts.MaxShift = 16
	}
	if opts.MaxBatchGap == 0 {
		opts.MaxBatchGap = 10
	}
	stats := Stats{CodeSize: img.CodeSize()}
	var d *dis.Result
	var g *cfg.Graph
	var recovered map[uint64]bool
	if ts != nil {
		// The resolver decoded the image already: its first iteration is
		// the plain disassembly, and ts.Dis extends it.
		recovered = make(map[uint64]bool)
		for _, in := range ts.Dis.Order {
			if _, ok := ts.Plain.Index(in.Addr); !ok {
				recovered[in.Addr] = true
			}
		}
		d = ts.Dis
		sum := ts.Summary()
		stats.ResolvedSites = sum.SitesHigh
		stats.ResolvedTargets = sum.TargetsHigh
		stats.RecoveredInsts = len(recovered)
		g = cfg.BuildResolved(d, ts)
	} else {
		d = dis.Disassemble(img)
		g = cfg.Build(d)
	}
	la := liveness.Analyze(g)
	compressed := img.ISA.Has(riscv.ExtC)

	stats.TotalInsts = len(d.Order)

	// ---- Identify sources -------------------------------------------------
	isSource := func(in riscv.Inst) bool {
		if opts.EmptyPatch {
			return in.Extension() == riscv.ExtV
		}
		return !opts.TargetISA.Has(in.Extension())
	}
	sew := resolveSEW(d)

	var sourceAddrs []uint64
	for _, in := range d.Order {
		if isSource(in.Inst) {
			sourceAddrs = append(sourceAddrs, in.Addr)
		}
	}
	stats.SourceInsts = len(sourceAddrs)
	if stats.TotalInsts > 0 {
		stats.ExtPct = 100 * float64(stats.SourceInsts) / float64(stats.TotalInsts)
	}

	// ---- Upgrade sites ----------------------------------------------------
	var seeds []siteSeed
	upgradeTaken := make(map[uint64]bool)
	if !opts.DisableUpgrade && !opts.EmptyPatch {
		for _, u := range translate.MatchUpgrades(d) {
			if !replacementFits(u.Replacement, opts.TargetISA) {
				continue
			}
			if anyIsSource(d, u.Addrs, isSource) {
				continue // overlaps downgrade work; let downgrading win
			}
			uc := u
			end := instEnd(d, u.Addrs[len(u.Addrs)-1])
			seeds = append(seeds, siteSeed{start: u.Addrs[0], regionEnd: end, upgrade: &uc})
			for _, a := range u.Addrs {
				upgradeTaken[a] = true
			}
			stats.UpgradeSites++
		}
	}

	// ---- Downgrade idiom sites ---------------------------------------------
	// Block-level translation templates for canonical vector loops: the
	// whole strip-mined loop becomes one scalar loop in the target block,
	// keeping downgraded code near scalar-native speed (§4.1 templates).
	if !opts.EmptyPatch && img.ISA.Has(riscv.ExtV) && !opts.TargetISA.Has(riscv.ExtV) {
		for _, u := range translate.MatchVectorDowngrades(d) {
			if !replacementFits(u.Replacement, opts.TargetISA) {
				continue
			}
			conflict := false
			for _, a := range u.Addrs {
				if upgradeTaken[a] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			uc := u
			end := instEnd(d, u.Addrs[len(u.Addrs)-1])
			seeds = append(seeds, siteSeed{start: u.Addrs[0], regionEnd: end, upgrade: &uc})
			for _, a := range u.Addrs {
				upgradeTaken[a] = true
			}
		}
	}

	// ---- Downgrade batches ------------------------------------------------
	batchEnd := computeBatches(d, sourceAddrs, opts)
	for _, a := range sourceAddrs {
		if upgradeTaken[a] {
			continue
		}
		seeds = append(seeds, siteSeed{start: a, regionEnd: batchEnd[a]})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].start < seeds[j].start })

	// ---- Space scanning & region assembly ---------------------------------
	rw := img.Clone()
	rw.Name = img.Name + ".chbp"

	// The simulated vector register file and the target section go after all
	// existing sections.
	highest := uint64(0)
	for _, s := range rw.Sections {
		if s.End() > highest {
			highest = s.End()
		}
	}
	vregAddr := obj.AlignUp(highest, obj.PageSize)
	targetBase := obj.AlignUp(vregAddr+translate.VRegFileSize, obj.PageSize)
	ctx := &translate.Context{VRegBase: vregAddr}

	var sites []*patchSite
	covered := uint64(0)
	for _, seed := range seeds {
		if seed.start < covered {
			continue // inside a previous site's overwritten space
		}
		site := &patchSite{start: seed.start, upgrade: seed.upgrade}
		switch {
		case recovered[seed.start]:
			// Resolver-recovered code: pre-materialize the fault-table row
			// behind a trap entry. The trap is fail-safe — if the static
			// resolution were ever wrong about this region, a stray landing
			// raises SIGTRAP instead of executing a half-patched SMILE pair
			// — and keeps the site visible to the kernel, which counts the
			// runtime-rewrite faults the pre-built row avoids.
			site.trapOnly = true
			site.resolved = true
			site.spaceEnd = instEnd(d, seed.start)
		case opts.Trampoline == TrapEntry:
			site.trapOnly = true
			site.spaceEnd = instEnd(d, seed.start)
		case opts.Trampoline == GeneralReg:
			// Fig. 5: overwrite a preceding lui+memory pair, jumping through
			// the register that holds the data address.
			luiAddr, reg, ok := findMemPair(d, seed.start, covered)
			if !ok {
				site.trapOnly = true
				site.spaceEnd = instEnd(d, seed.start)
				break
			}
			site.start = luiAddr
			site.spaceEnd = luiAddr + 8
			site.genReg = reg
		default:
			spaceEnd, ok := scanSpace(d, seed.start)
			if !ok {
				site.trapOnly = true
				site.spaceEnd = instEnd(d, seed.start)
				break
			}
			site.spaceEnd = spaceEnd
		}
		site.regionEnd = seed.regionEnd
		if site.spaceEnd > site.regionEnd {
			site.regionEnd = site.spaceEnd
		}
		region, err := collectRegion(d, site.start, site.regionEnd, isSource, sew, upgradeTaken)
		if err != nil {
			// Fall back to the smallest viable trap site.
			site.trapOnly = true
			site.spaceEnd = instEnd(d, seed.start)
			site.regionEnd = site.spaceEnd
			if seed.upgrade != nil {
				site.regionEnd = instEnd(d, seed.upgrade.Addrs[len(seed.upgrade.Addrs)-1])
			}
			region, err = collectRegion(d, site.start, site.regionEnd, isSource, sew, upgradeTaken)
			if err != nil {
				return nil, fmt.Errorf("chbp: site at %#x unbuildable: %w", seed.start, err)
			}
		}
		site.region = region
		covered = site.spaceEnd
		sites = append(sites, site)
	}

	// ---- Build target blocks ----------------------------------------------
	env := &exitEnv{
		la:   la,
		next: d.At,
		isSource: func(a uint64) bool {
			in, ok := d.At(a)
			return ok && isSource(in)
		},
		enableShift: !opts.DisableExitShift,
		maxShift:    opts.MaxShift,
	}
	for _, site := range sites {
		res, err := buildSiteBlock(site, img.GP, env, ctx, opts.EmptyPatch)
		if err != nil {
			return nil, err
		}
		if res.deadRegFailTraditional {
			stats.DeadRegFailTraditional++
		}
		if res.deadRegFailShifted {
			stats.DeadRegFailShifted++
		}
		stats.TrapExits += res.trapExits
	}

	// ---- Layout & patching -------------------------------------------------
	tables := NewTables(img.GP)
	avoidedSources := make(map[uint64]bool)
	alloc := &layoutAlloc{cursor: targetBase, compressed: compressed}
	type placed struct {
		site *patchSite
		addr uint64
	}
	var placements []placed
	for _, site := range sites {
		size := uint64(4 * len(site.block.insts))
		addr := alloc.place(site.start, size, !site.trapOnly && site.genReg == 0)
		placements = append(placements, placed{site, addr})
		stats.BlockInsts += len(site.block.insts)
	}
	// Trim the leading allocator gap (the compressed-mode residue windows
	// start ~2MB above the section base) so the image stays compact.
	targetEnd := alloc.cursor
	targetStart := targetBase
	stats.PaddingBytes = alloc.padding
	if len(placements) > 0 {
		targetStart = placements[0].addr &^ (obj.PageSize - 1)
		stats.PaddingBytes -= placements[0].addr - targetBase
	}
	if targetEnd < targetStart {
		targetEnd = targetStart
	}
	targetData := make([]byte, targetEnd-targetStart)

	// First pass: the fault-handling table needs every block address before
	// exit targets can be resolved — an exit may resume at an address that a
	// *later* site's trampoline overwrote, in which case it must jump
	// straight to the relocated copy instead of faulting on every pass.
	for _, p := range placements {
		for orig, idx := range p.site.block.keys {
			if p.site.genReg != 0 {
				// Fig. 5 recovery cannot restore the pair register (its
				// static value is unknown to the kernel); redirect to the
				// copied lui instead, which re-establishes it. Re-executing
				// the lui is idempotent.
				idx = p.site.block.pos[p.site.start]
			}
			tables.Redirect[orig] = p.addr + uint64(4*idx)
		}
	}
	remap := func(addr uint64) uint64 {
		if to, ok := tables.Redirect[addr]; ok {
			return to
		}
		return addr
	}

	for _, p := range placements {
		site, T := p.site, p.addr
		// Resolve exit fixups now that the block addresses are known.
		for _, f := range site.block.fixes {
			a := T + uint64(4*f.idx)
			pair, err := encodeVanilla(a, remap(f.target), site.block.insts[f.idx].Rd)
			if err != nil {
				return nil, err
			}
			site.block.insts[f.idx] = pair[0]
			site.block.insts[f.idx+1] = pair[1]
		}
		// Emit block bytes.
		for i, in := range site.block.insts {
			w, err := riscv.Encode(in)
			if err != nil {
				return nil, fmt.Errorf("chbp: encoding %v in block at %#x: %w", in, T, err)
			}
			binary.LittleEndian.PutUint32(targetData[T-targetStart+uint64(4*i):], w)
		}
		// Patch the entry.
		switch {
		case site.trapOnly:
			stats.TrapEntries++
			in, _ := d.At(site.start)
			if err := writeTrap(rw, site.start, in.Len); err != nil {
				return nil, err
			}
			tables.Trap[site.start] = T
			if site.resolved {
				// Each unique source pc in the region would have been one
				// runtime-rewrite fault (RuntimeRewriteCost apiece) without
				// the resolver; the kernel credits the count on first entry.
				// Consecutive sites' regions overlap (each keeps its own
				// trampoline but extends over the shared batch), so the
				// per-site table rows count their own region while the
				// stats total dedups by source pc.
				avoided := uint64(0)
				for _, item := range site.region {
					if isSource(item.inst) {
						avoided++
						if !avoidedSources[item.addr] {
							avoidedSources[item.addr] = true
							stats.AvoidedRewrites++
						}
					}
				}
				tables.Resolved[site.start] = avoided
				stats.PrematerializedSites++
			}
		case site.genReg != 0:
			stats.SmileEntries++
			smile, err := EncodeGeneralSmile(site.start, T, site.genReg)
			if err != nil {
				return nil, fmt.Errorf("chbp: general smile at %#x: %w", site.start, err)
			}
			if err := rw.WriteAt(site.start, smile[:]); err != nil {
				return nil, err
			}
			tables.Spaces[site.start] = site.spaceEnd
		default:
			stats.SmileEntries++
			smile, err := EncodeSmile(site.start, T, compressed)
			if err != nil {
				return nil, fmt.Errorf("chbp: smile at %#x: %w", site.start, err)
			}
			if err := rw.WriteAt(site.start, smile[:]); err != nil {
				return nil, err
			}
			if err := padNops(rw, site.start+8, site.spaceEnd, compressed); err != nil {
				return nil, err
			}
			tables.Spaces[site.start] = site.spaceEnd
		}
		// Tables. (Redirect was filled in the first pass.)
		for idx, resume := range site.block.trapExits {
			tables.ExitTrap[T+uint64(4*idx)] = remap(resume)
		}
		if site.block.normalResume != 0 {
			tables.ExitOf[T] = site.block.normalResume
		}
	}
	stats.Sites = len(sites)
	stats.RedirectKeys = len(tables.Redirect)
	stats.TargetBytes = len(targetData)
	tables.TargetStart, tables.TargetEnd = targetStart, targetEnd

	// ---- Assemble the rewritten image --------------------------------------
	rw.AddSection(&obj.Section{Name: obj.SecVRegFile, Addr: vregAddr,
		Data: make([]byte, translate.VRegFileSize), Perm: obj.PermRW})
	if len(targetData) > 0 {
		rw.AddSection(&obj.Section{Name: obj.SecTarget, Addr: targetStart,
			Data: targetData, Perm: obj.PermRX})
	}
	rw.AddSection(&obj.Section{Name: obj.SecFaultTab,
		Addr: obj.AlignUp(targetEnd+1, obj.PageSize), Data: tables.Marshal(), Perm: obj.PermR})
	if !opts.EmptyPatch {
		rw.ISA = opts.TargetISA
	}
	if err := rw.Validate(); err != nil {
		return nil, fmt.Errorf("chbp: rewritten image invalid: %w", err)
	}
	return &Result{Image: rw, Tables: tables, Stats: stats}, nil
}

// resolveSEW assigns the element width in effect at each instruction by a
// linear sweep tracking the most recent vsetvli — the static vector
// configuration compilers emit per block makes this exact in practice.
func resolveSEW(d *dis.Result) []riscv.SEW {
	out := make([]riscv.SEW, len(d.Order))
	cur := riscv.E64
	for i, in := range d.Order {
		if in.Inst.Op == riscv.VSETVLI {
			cur = riscv.SEWOf(in.Inst.Imm)
		}
		out[i] = cur
	}
	return out
}

// instEnd returns the address one past the recognized instruction at a.
func instEnd(d *dis.Result, a uint64) uint64 {
	in, _ := d.At(a)
	return a + uint64(in.Len)
}

func replacementFits(repl []riscv.Inst, isa riscv.Ext) bool {
	for _, in := range repl {
		if !isa.Has(in.Extension()) {
			return false
		}
	}
	return true
}

func anyIsSource(d *dis.Result, addrs []uint64, isSource func(riscv.Inst) bool) bool {
	for _, a := range addrs {
		if in, ok := d.At(a); ok && isSource(in) {
			return true
		}
	}
	return false
}

// computeBatches groups source instructions separated only by relocatable,
// non-control instructions (§4.2's batching optimization), then extends each
// batch through the following straight-line tail up to and including its
// control-flow terminator. A loop whose body a batch covers then closes
// inside the target block with no per-iteration trampoline crossing.
// Members keep their own trampolines for external entries, and mid-batch
// jump targets are covered by the fault-handling table, so fusing across
// basic-block leaders is sound. It returns, per source, the end address of
// the region its site should cover.
func computeBatches(d *dis.Result, sources []uint64, opts Options) map[uint64]uint64 {
	end := make(map[uint64]uint64, len(sources))
	for _, a := range sources {
		end[a] = instEnd(d, a)
	}
	if opts.DisableBatching {
		return end
	}
	for i := 0; i < len(sources); {
		j := i
		for j+1 < len(sources) && gapRelocatable(d, instEnd(d, sources[j]), sources[j+1], opts.MaxBatchGap) {
			j++
		}
		batchEnd := instEnd(d, sources[j])
		// Tail extension: copy the run up to (and including) the next
		// control-flow instruction.
		a, n := batchEnd, 0
		for n < opts.MaxBatchGap {
			in, ok := d.At(a)
			if !ok {
				break
			}
			reloc, mustLast := relocatable(in)
			if !reloc {
				break
			}
			a += uint64(in.Len)
			n++
			if mustLast || in.IsControl() {
				batchEnd = a
				break
			}
		}
		for k := i; k <= j; k++ {
			end[sources[k]] = batchEnd
		}
		i = j + 1
	}
	return end
}

// gapRelocatable reports whether all instructions in [from, to) are
// relocatable non-control instructions, at most max of them.
func gapRelocatable(d *dis.Result, from, to uint64, max int) bool {
	n := 0
	for a := from; a < to; {
		in, ok := d.At(a)
		if !ok {
			return false
		}
		if ok, mustLast := relocatable(in); !ok || mustLast {
			return false
		}
		if n++; n > max {
			return false
		}
		a += uint64(in.Len)
	}
	return true
}

// findMemPair scans backward from addr (up to 12 instructions, staying
// above floor) for an adjacent "lui rX, imm ; load/store rY, off(rX)" pair
// of 4-byte instructions whose following run up to addr is relocatable —
// the Fig. 5 overwrite site.
func findMemPair(d *dis.Result, addr, floor uint64) (uint64, riscv.Reg, bool) {
	idx, ok := d.Index(addr)
	if !ok {
		return 0, 0, false
	}
	for back := 1; back <= 12 && idx-back-1 >= 0; back++ {
		loadAt, mem := d.Order[idx-back].Addr, d.Order[idx-back].Inst
		luiAt, lui := d.Order[idx-back-1].Addr, d.Order[idx-back-1].Inst
		if luiAt < floor {
			return 0, 0, false
		}
		if lui.Op != riscv.LUI || lui.Len != 4 || mem.Len != 4 || luiAt+4 != loadAt {
			continue
		}
		if lui.Rd == riscv.Zero || lui.Rd == riscv.SP || mem.Rs1 != lui.Rd {
			continue
		}
		switch mem.Op {
		case riscv.LB, riscv.LH, riscv.LW, riscv.LD, riscv.LBU, riscv.LHU, riscv.LWU,
			riscv.SB, riscv.SH, riscv.SW, riscv.SD, riscv.FLW, riscv.FLD, riscv.FSW, riscv.FSD:
		default:
			continue
		}
		if !gapRelocatable(d, loadAt+4, addr, 12) {
			continue
		}
		return luiAt, lui.Rd, true
	}
	return 0, 0, false
}

// scanSpace finds the trampoline space (Fig. 4): the source instruction at
// start plus following instructions until 8 bytes are covered. Control-flow
// instructions may only complete the space, never sit inside it.
func scanSpace(d *dis.Result, start uint64) (uint64, bool) {
	addr := start
	covered := 0
	for covered < 8 {
		in, ok := d.At(addr)
		if !ok {
			return 0, false
		}
		reloc, mustLast := relocatable(in)
		if !reloc {
			return 0, false
		}
		covered += in.Len
		addr += uint64(in.Len)
		if mustLast && covered < 8 {
			return 0, false
		}
	}
	return addr, true
}

// collectRegion gathers the original instructions in [start, end).
func collectRegion(d *dis.Result, start, end uint64,
	isSource func(riscv.Inst) bool, sew []riscv.SEW,
	upgradeTaken map[uint64]bool) ([]regionItem, error) {

	var out []regionItem
	for a := start; a < end; {
		i, ok := d.Index(a)
		if !ok {
			return nil, fmt.Errorf("unrecognized instruction at %#x", a)
		}
		in := d.Order[i].Inst
		src := isSource(in) && !upgradeTaken[a]
		if !src && !upgradeTaken[a] {
			// Idiom-covered instructions are replaced wholesale; only plain
			// copied instructions face relocation constraints.
			if ok, mustLast := relocatable(in); !ok {
				return nil, fmt.Errorf("unrelocatable %s at %#x", in, a)
			} else if mustLast && a+uint64(in.Len) < end {
				return nil, fmt.Errorf("control flow mid-region at %#x", a)
			}
		}
		out = append(out, regionItem{addr: a, inst: in, isSource: src, sew: sew[i]})
		a += uint64(in.Len)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty region at %#x", start)
	}
	return out, nil
}

// writeTrap replaces the instruction at addr with an ebreak of its length.
func writeTrap(img *obj.Image, addr uint64, length int) error {
	if length == 2 {
		var b [2]byte
		p, err := riscv.EncodeCompressed(riscv.Inst{Op: riscv.EBREAK})
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint16(b[:], p)
		return img.WriteAt(addr, b[:])
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], riscv.MustEncode(riscv.Inst{Op: riscv.EBREAK}))
	return img.WriteAt(addr, b[:])
}

// padNops fills [from, to) with nops (2-byte when the image is compressed).
func padNops(img *obj.Image, from, to uint64, compressed bool) error {
	for a := from; a < to; {
		if compressed {
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], riscv.CNop)
			if err := img.WriteAt(a, b[:]); err != nil {
				return err
			}
			a += 2
			continue
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], riscv.MustEncode(riscv.Inst{Op: riscv.ADDI}))
		if err := img.WriteAt(a, b[:]); err != nil {
			return err
		}
		a += 4
	}
	return nil
}
