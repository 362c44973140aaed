package rewriters_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/eurosys26p57/chimera/internal/bench"
	"github.com/eurosys26p57/chimera/internal/chbp"
	"github.com/eurosys26p57/chimera/internal/corpus"
	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/resolve"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// parityTarget is the downgrade-direction core: every input is RV64GCV.
const parityTarget = riscv.RV64GC

// parityImages is the SPEC-shaped suite, code size scaled down 32x and
// run for two rounds so the whole matrix stays fast under -race, plus
// seed 1 of every evaluation-matrix corpus family.
func parityImages(t *testing.T) []*obj.Image {
	t.Helper()
	var out []*obj.Image
	for _, c := range workload.SpecSuite() {
		p := c.Params
		p.CodeKB = max(32, p.CodeKB/32)
		p.Rounds = 2
		img, err := workload.BuildSpec(p, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, img)
	}
	for _, f := range corpus.Families() {
		prog, err := corpus.Build(f.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, prog.Image)
	}
	return out
}

// direct is one rewrite the way the callers built it before the registry:
// the method's own entry point, and a hand-built kernel view.
func direct(img *obj.Image, method string, o rewriters.Options) (*obj.Image, *chbp.Tables, kernel.Variant, error) {
	var ts *resolve.TargetSet
	if o.Resolve {
		ts = resolve.Resolve(img)
	}
	switch method {
	case "chbp", "strawman":
		opts := chbp.Options{TargetISA: o.Target, EmptyPatch: o.EmptyPatch, Resolve: o.Resolve}
		if method == "strawman" {
			opts.Trampoline = chbp.TrapEntry
		}
		res, err := chbp.Rewrite(img, opts)
		if err != nil {
			return nil, nil, kernel.Variant{}, err
		}
		return res.Image, res.Tables, kernel.Variant{ISA: res.Image.ISA, Image: res.Image, Tables: res.Tables}, nil
	case "safer":
		rw, err := rewriters.SaferWith(img, o.Target, o.EmptyPatch, ts)
		if err != nil {
			return nil, nil, kernel.Variant{}, err
		}
		return rw.Image, rw.Tables, kernel.Variant{
			ISA: rw.Image.ISA, Image: rw.Image, Tables: rw.Tables,
			AddrMap: rw.AddrMap, SaferChecks: true, SaferResolved: rw.Resolved,
		}, nil
	case "armore":
		rw, err := rewriters.ARMoreWith(img, o.Target, o.EmptyPatch, ts)
		if err != nil {
			return nil, nil, kernel.Variant{}, err
		}
		return rw.Image, rw.Tables, kernel.Variant{
			ISA: rw.Image.ISA, Image: rw.Image, Tables: rw.Tables, AddrMap: rw.AddrMap,
		}, nil
	}
	return nil, nil, kernel.Variant{}, fmt.Errorf("no direct entry point for %q", method)
}

func imageWire(t *testing.T, img *obj.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// outcome runs a view on a core of its ISA and renders how it ended.
func outcome(v kernel.Variant) string {
	p, err := kernel.NewProcess(v.Image.Name, []kernel.Variant{v})
	if err != nil {
		return "process: " + err.Error()
	}
	if _, err := bench.RunOnCore(p, v.ISA); err != nil {
		return fmt.Sprintf("exit %d: %v", p.ExitCode, err)
	}
	return fmt.Sprintf("exit %d", p.ExitCode)
}

// TestRegistryParity holds the registry to the entry points it wraps: for
// every method × resolver off/on × empty patch off/on, its serialized
// image and tables are byte-identical to the direct call's, rejects match
// error for error, and Variant() runs to the same exit as the kernel view
// callers used to build by hand.
func TestRegistryParity(t *testing.T) {
	for _, img := range parityImages(t) {
		for _, method := range rewriters.Methods() {
			for _, resolved := range []bool{false, true} {
				for _, empty := range []bool{false, true} {
					o := rewriters.Options{Target: parityTarget, Resolve: resolved, EmptyPatch: empty}
					id := fmt.Sprintf("%s/%s/resolve=%t/empty=%t", img.Name, method, resolved, empty)
					wantImg, wantTab, wantV, wantErr := direct(img, method, o)
					got, err := rewriters.Rewrite(img, method, o)
					if wantErr != nil || err != nil {
						if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
							t.Errorf("%s: registry error %v, direct error %v", id, err, wantErr)
						}
						continue
					}
					if !bytes.Equal(imageWire(t, got.Image), imageWire(t, wantImg)) {
						t.Errorf("%s: registry image differs from the direct rewrite", id)
					}
					if !bytes.Equal(got.Tables.Marshal(), wantTab.Marshal()) {
						t.Errorf("%s: registry tables differ from the direct rewrite", id)
					}
					if g, w := outcome(got.Variant()), outcome(wantV); g != w {
						t.Errorf("%s: Variant() ran to %q, hand-built view to %q", id, g, w)
					}
				}
			}
		}
	}
}

// TestRegistryRejectBoundary pins where the registry turns failures into
// refusals. A panic inside a rewriter comes back as ErrRewriteReject, as
// from the direct entry points. A panic in the resolver pass escapes to the
// caller, whose panic boundary counts it as a bug (the service's worker
// panic, the evaluation matrix's crash grade). An untyped rewriter error
// stays untyped.
func TestRegistryRejectBoundary(t *testing.T) {
	for _, method := range rewriters.Methods() {
		_, err := rewriters.Rewrite(nil, method, rewriters.Options{Target: parityTarget})
		if !errors.Is(err, rewriters.ErrRewriteReject) {
			t.Errorf("%s: rewriter panic gave %v, want ErrRewriteReject", method, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: resolver panic did not escape Rewrite", method)
				}
			}()
			out, err := rewriters.Rewrite(nil, method, rewriters.Options{Target: parityTarget, Resolve: true})
			t.Errorf("%s: resolver panic returned (%v, %v)", method, out, err)
		}()
	}
	img := parityImages(t)[0]
	for _, method := range []string{"chbp", "strawman"} {
		_, err := rewriters.Rewrite(img, method, rewriters.Options{})
		if err == nil || errors.Is(err, rewriters.ErrRewriteReject) {
			t.Errorf("%s: no target ISA gave %v, want an untyped error", method, err)
		}
	}
}
