package fuzzsvc

import (
	"testing"

	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// BenchmarkFuzzExec measures one warm execution cycle of a campaign —
// Process.Reset, the guest run, and the coverage fold — without mutation,
// hashing or triage: the per-exec fixed cost. The input clears every gate
// of the seeded-bug guest but the magic word, so the guest takes its
// longest non-crashing path. scripts/check.sh gates it at 0 allocs/op.
func BenchmarkFuzzExec(b *testing.B) {
	img, err := workload.FuzzTarget(riscv.RV64GC, true)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{Image: img, ExecBudget: 200_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := workload.FuzzTargetCrashInput()
	input[len(input)-1] ^= 0xFF
	cycle := func() {
		if r := c.exec(input); r.kind != execOK {
			b.Fatalf("exec outcome %d, want a clean exit", r.kind)
		}
		c.coverNew()
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
