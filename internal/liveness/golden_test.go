package liveness_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"github.com/eurosys26p57/chimera/internal/cfg"
	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/dis"
	"github.com/eurosys26p57/chimera/internal/liveness"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// goldenImages is every internal/corpus family (seeds 1 and 2) and every
// internal/workload generator, the suites scaled down the way the rewriter
// parity tests scale them.
func goldenImages(t *testing.T) []*obj.Image {
	t.Helper()
	var out []*obj.Image
	add := func(img *obj.Image, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, img)
	}
	for _, f := range corpus.Families() {
		for seed := int64(1); seed <= 2; seed++ {
			p, err := f.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p.Image)
		}
	}
	for _, c := range append(workload.SpecSuite(), workload.RealWorldSuite()...) {
		p := c.Params
		p.CodeKB = max(32, p.CodeKB/32)
		p.Rounds = 2
		add(workload.BuildSpec(p, true))
	}
	for _, vec := range []bool{false, true} {
		add(workload.Matmul(8, vec, true))
		for _, k := range workload.BLASKinds {
			add(workload.BLAS(k, 8, 0, 8, vec))
		}
		add(workload.BuildDispatch(workload.DispatchParams{
			Name: "dispatch", Arms: 6, VecArms: 3, Rounds: 8, Compress: true,
		}, vec))
		add(workload.BuildDispatch(workload.DispatchParams{
			Name: "dispatch-data", Arms: 5, VecArms: 2, Rounds: 8,
			TableInData: true, MidEntry: true,
		}, vec))
	}
	add(workload.Fibonacci(10, riscv.RV64GC, true))
	add(workload.Fibonacci(10, riscv.RV64GCV, false))
	add(workload.FuzzTarget(riscv.RV64GC, true))
	return out
}

// digestGraph hashes everything the rewriter reads off a CFG and its
// liveness: per block in address order, its start, successor starts,
// flags and resolved targets, then per instruction the registers live
// before and after it.
func digestGraph(h hash.Hash, g *cfg.Graph) {
	la := liveness.Analyze(g)
	for _, b := range g.Blocks {
		fmt.Fprintf(h, "B %x ind=%t call=%t ret=%t succ=", b.Start, b.HasIndirect, b.IsCallSite, b.IsRet)
		for _, s := range b.Succs {
			fmt.Fprintf(h, "%x,", g.Blocks[s].Start)
		}
		fmt.Fprint(h, " res=")
		for _, r := range b.ResolvedTargets {
			fmt.Fprintf(h, "%x,", r)
		}
		fmt.Fprintln(h)
		for _, x := range g.Dis.Order[b.First : b.Last+1] {
			fmt.Fprintf(h, "I %x %08x %08x\n", x.Addr, la.LiveBefore(x.Addr), la.LiveAfter(x.Addr))
		}
	}
}

// TestGraphLivenessGolden pins the CFG and liveness results of every
// corpus and workload image, under both Build and BuildResolved, to the
// digests in testdata/cfg_liveness.golden.
func TestGraphLivenessGolden(t *testing.T) {
	var got bytes.Buffer
	for i, img := range goldenImages(t) {
		plain := sha256.New()
		digestGraph(plain, cfg.Build(dis.Disassemble(img)))
		ts := resolve.Resolve(img)
		resolved := sha256.New()
		digestGraph(resolved, cfg.BuildResolved(ts.Dis, ts))
		fmt.Fprintf(&got, "%02d %s build=%x resolved=%x\n", i, img.Name, plain.Sum(nil)[:12], resolved.Sum(nil)[:12])
	}
	path := filepath.Join("testdata", "cfg_liveness.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("CFG/liveness results drifted from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
