// chimera-rewrite rewrites an image for a target core's ISA with CHBP or
// one of the evaluated baselines, embedding the runtime tables in the
// output image.
//
// Usage:
//
//	chimera-rewrite -target rv64gc -method chbp -o prog.gc.chim prog.chim
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
)

func main() {
	target := flag.String("target", "rv64gc", "target ISA: rv64g, rv64gc, rv64gcv, rv64gcb")
	method := flag.String("method", "chbp", "rewriter: "+strings.Join(rewriters.Methods(), ", "))
	empty := flag.Bool("empty", false, "empty patching (replicate sources; §6.2 methodology)")
	noShift := flag.Bool("no-exit-shift", false, "disable exit-position shifting (ablation)")
	noBatch := flag.Bool("no-batching", false, "disable basic-block batching (ablation)")
	doResolve := flag.Bool("resolve", false, "run the static indirect-target resolver first (recover hidden jump-table arms)")
	out := flag.String("o", "", "output image path")
	flag.Parse()
	if flag.NArg() != 1 || *out == "" {
		usage("")
	}
	// Validate flag values before touching the input file so bad invocations
	// fail fast with usage instead of late in the fatal path.
	isa, err := riscv.ParseISA(*target)
	if err != nil {
		usage(fmt.Sprintf("bad -target: %v", err))
	}
	if _, ok := rewriters.Lookup(*method); !ok {
		usage(fmt.Sprintf("bad -method %q (want one of %v)", *method, rewriters.Methods()))
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := obj.ReadImage(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	res, err := rewriters.Rewrite(img, *method, rewriters.Options{
		Target:           isa,
		EmptyPatch:       *empty,
		Resolve:          *doResolve,
		DisableExitShift: *noShift,
		DisableBatching:  *noBatch,
	})
	if err != nil {
		fatal(err)
	}
	stats := res.Stats
	if stats.Resolve != nil {
		fmt.Printf("resolver: %s\n", stats.Resolve)
		stats.Resolve = nil
	}
	js, err := json.Marshal(stats)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %s for %v: %s\n", img.Name, *method, isa, js)
	if res.Variant().SaferChecks {
		fmt.Println("note: the address map and runtime checks are not in the written image; use the in-process API for execution")
	}

	of, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer of.Close()
	if _, err := res.Image.WriteTo(of); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func usage(msg string) {
	if msg != "" {
		fmt.Fprintln(os.Stderr, "chimera-rewrite:", msg)
	}
	fmt.Fprintf(os.Stderr, "usage: chimera-rewrite -target ISA -method {%s} -o out.chim in.chim\n",
		strings.Join(rewriters.Methods(), "|"))
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chimera-rewrite:", err)
	os.Exit(1)
}
