package rewriters_test

import (
	"fmt"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// pipelineImages are the two input shapes of a cold rewrite: a SPEC-shaped
// image (translation work: idiom matching, vector downgrades, placement)
// and a jump-table dispatch image (resolver work: fixpoint iterations over
// a growing disassembly).
func pipelineImages(b *testing.B) []*obj.Image {
	b.Helper()
	c := workload.SpecSuite()[0]
	p := c.Params
	p.CodeKB, p.Rounds = 64, 1
	spec, err := workload.BuildSpec(p, true)
	if err != nil {
		b.Fatal(err)
	}
	dispatch, err := workload.BuildDispatch(workload.DispatchParams{
		Name: "pipeline-dispatch", Arms: 12, VecArms: 6, Rounds: 8, Compress: true,
	}, true)
	if err != nil {
		b.Fatal(err)
	}
	return []*obj.Image{spec, dispatch}
}

// BenchmarkRewritePipeline runs one whole rewrite — resolver pass when
// asked, disassembly, idiom matching, placement, tables and serialization
// — per iteration, for every registered method with the resolver off and
// on. Its allocs/op is gated in scripts/check.sh.
func BenchmarkRewritePipeline(b *testing.B) {
	for _, img := range pipelineImages(b) {
		for _, method := range rewriters.Methods() {
			for _, resolve := range []bool{false, true} {
				o := rewriters.Options{Target: parityTarget, Resolve: resolve}
				b.Run(fmt.Sprintf("%s/%s/resolve=%t", img.Name, method, resolve), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := rewriters.Rewrite(img, method, o)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := res.Image.MarshalBinary(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
