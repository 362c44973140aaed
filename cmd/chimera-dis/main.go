// chimera-dis disassembles a Chimera image recursively and prints the
// recognized instructions, coverage, and indirect-jump sites.
//
// Usage:
//
//	chimera-dis prog.chim
//	chimera-dis -resolve prog.chim   # relational target recovery per site
//	chimera-dis -resolve -dot prog.chim > cfg.dot
//
// -resolve runs the static resolver and prints every indirect site with
// its recovered candidate targets and confidence tiers; the listing then
// covers the completed disassembly (jump-table arms reachable only
// through recovered targets included). -dot dumps the control-flow graph
// as Graphviz DOT instead of a listing; combined with -resolve the graph
// carries the completed indirect edges, drawn dashed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/eurosys26p57/chimera/internal/cfg"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
)

func main() {
	doResolve := flag.Bool("resolve", false, "recover indirect-jump targets and print per-site candidates with confidence tiers")
	doDot := flag.Bool("dot", false, "dump the control-flow graph as Graphviz DOT instead of a listing")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: chimera-dis [-resolve] [-dot] prog.chim")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	img, err := obj.ReadImage(f)
	if err != nil {
		fatal(err)
	}

	var ts *resolve.TargetSet
	var res *dis.Result
	if *doResolve {
		ts = resolve.Resolve(img)
		res = ts.Dis
	} else {
		res = dis.Disassemble(img)
	}

	// Symbol index for annotation.
	symAt := map[uint64]string{}
	for _, s := range img.Symbols {
		if s.Kind == obj.SymFunc {
			symAt[s.Addr] = s.Name
		}
	}

	if *doDot {
		var g *cfg.Graph
		if ts != nil {
			g = cfg.BuildResolved(res, ts)
		} else {
			g = cfg.Build(res)
		}
		writeDot(os.Stdout, g, symAt)
		return
	}

	indirect := map[uint64]bool{}
	for _, a := range res.IndirectJumps {
		indirect[a] = true
	}

	for _, x := range res.Order {
		a, in := x.Addr, x.Inst
		if name, ok := symAt[a]; ok {
			fmt.Printf("\n%s:\n", name)
		}
		note := ""
		if indirect[a] {
			note = "\t; indirect"
			if ts != nil {
				if s := ts.Site(a); s != nil && len(s.Targets) > 0 {
					note = fmt.Sprintf("\t; indirect [%s, %d candidates]", s.Tier(), len(s.Targets))
				}
			}
		}
		fmt.Printf("  %#08x:  %s%s\n", a, in, note)
	}

	fmt.Printf("\n%d instructions, %.1f%% of executable bytes covered, %d indirect jumps, %d calls\n",
		len(res.Order), 100*res.Coverage(img), len(res.IndirectJumps), len(res.Calls))
	if len(res.Undecodable) > 0 {
		var addrs []uint64
		for a := range res.Undecodable {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		fmt.Printf("undecodable on recursive paths:\n")
		for _, a := range addrs {
			fmt.Printf("  %#08x: %v\n", a, res.Undecodable[a])
		}
	}
	if ts != nil {
		printResolved(ts, symAt)
	}
}

// printResolved lists every indirect site with its recovered candidates,
// most confident tier first within each site.
func printResolved(ts *resolve.TargetSet, symAt map[uint64]string) {
	var sites []uint64
	for a := range ts.Sites {
		sites = append(sites, a)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })

	fmt.Printf("\nresolver: %s\n", ts.Summary())
	for _, a := range sites {
		s := ts.Sites[a]
		kind := "jump"
		if s.Call {
			kind = "call"
		}
		claim := ""
		if s.Exhaustive {
			claim = ", exhaustive"
		}
		fmt.Printf("site %#08x (%s%s):\n", a, kind, claim)
		if s.Table != nil {
			fmt.Printf("  table %#08x..%#08x in %s: %d entries x %d bytes\n",
				s.Table.Base, s.Table.End(), s.Table.Section, s.Table.Count, s.Table.Stride)
		}
		targets := append([]resolve.Target(nil), s.Targets...)
		sort.Slice(targets, func(i, j int) bool {
			if targets[i].Tier != targets[j].Tier {
				return targets[i].Tier > targets[j].Tier
			}
			return targets[i].Addr < targets[j].Addr
		})
		for _, t := range targets {
			name := ""
			if n, ok := symAt[t.Addr]; ok {
				name = " <" + n + ">"
			}
			fmt.Printf("  -> %#08x%s  [%s, %s]\n", t.Addr, name, t.Tier, t.Rule)
		}
	}
}

// writeDot dumps the CFG in Graphviz DOT form: one node per basic block
// labeled with its extent (and leading symbol, when one starts there),
// solid edges for static successors, dashed bold edges for successors the
// resolver recovered at an exhaustive indirect site.
func writeDot(w *os.File, g *cfg.Graph, symAt map[uint64]string) {
	fmt.Fprintln(w, "digraph cfg {")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	for _, b := range g.Blocks {
		label := fmt.Sprintf("%#x..%#x", b.Start, b.End(g.Dis))
		if name, ok := symAt[b.Start]; ok {
			label = name + "\\n" + label
		}
		attrs := []string{fmt.Sprintf("label=\"%s\"", label)}
		if b.HasIndirect {
			attrs = append(attrs, "color=orange")
		}
		fmt.Fprintf(w, "  b%x [%s];\n", b.Start, strings.Join(attrs, ", "))

		resolved := make(map[int]bool, len(b.ResolvedTargets))
		for _, t := range b.ResolvedTargets {
			if j, ok := g.BlockOf(t); ok {
				resolved[j] = true
			}
		}
		for _, s := range b.Succs {
			if resolved[s] {
				fmt.Fprintf(w, "  b%x -> b%x [style=dashed, penwidth=2, color=blue];\n", b.Start, g.Blocks[s].Start)
			} else {
				fmt.Fprintf(w, "  b%x -> b%x;\n", b.Start, g.Blocks[s].Start)
			}
		}
	}
	fmt.Fprintln(w, "}")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-dis:", err)
	os.Exit(1)
}
