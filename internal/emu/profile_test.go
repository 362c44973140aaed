package emu_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/emu"
	"github.com/eurosys26p57/chimera/internal/instrument"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/telemetry"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// profiledMatmul runs the n×n matmul workload to its exit with the guest
// profiler on, at the given trace threshold (0 pins the block tier).
func profiledMatmul(t *testing.T, n int64, threshold uint32) (*emu.CPU, *instrument.Profile) {
	t.Helper()
	img, err := workload.Matmul(n, false, true)
	if err != nil {
		t.Fatal(err)
	}
	mem := emu.NewMemory()
	mem.MapImage(img)
	cpu := emu.NewCPU(mem, riscv.RV64GC)
	cpu.TraceThreshold = threshold
	cpu.Reset(img)
	prof := instrument.NewProfile()
	cpu.SetHooks(&instrument.Hooks{Prof: prof})
	for {
		stop := cpu.Run(50_000_000)
		if stop.Kind == emu.StopEcall {
			break
		}
		if stop.Kind != emu.StopLimit {
			t.Fatalf("unexpected stop: %+v", stop)
		}
	}
	return cpu, prof
}

// TestGuestProfilerMatmul runs the matmul workload with the profiler on in
// both translation tiers and asserts the profiler's accounting exactly
// matches the engine's: every retired instruction and every cycle is
// attributed to exactly one sample, whether it was dispatched by a block or
// by a trace (which the profiler keys by its head block). On the block tier
// it also asserts the hot block — the dot-product inner loop — ranks first
// and symbolizes into main, and that the rendered table and folded stacks
// match testdata/guest_profile.golden byte for byte.
func TestGuestProfilerMatmul(t *testing.T) {
	const n = 16
	for _, tier := range []struct {
		name      string
		threshold uint32
	}{{"blocks", 0}, {"traces", emu.DefaultTraceThreshold}} {
		t.Run(tier.name, func(t *testing.T) {
			cpu, prof := profiledMatmul(t, n, tier.threshold)
			cycles, instret := prof.Totals()
			if instret != cpu.Blocks.Retired {
				t.Errorf("profiler instret %d != engine retired %d", instret, cpu.Blocks.Retired)
			}
			if cycles != cpu.Cycles {
				t.Errorf("profiler cycles %d != cpu cycles %d", cycles, cpu.Cycles)
			}
			if tier.threshold != 0 {
				if cpu.Blocks.TraceRetired == 0 {
					t.Error("trace tier retired nothing: the traces row checks nothing")
				}
				return
			}
			img, err := workload.Matmul(n, false, true)
			if err != nil {
				t.Fatal(err)
			}
			st := telemetry.SymTableOf(img)
			if st == nil {
				t.Fatal("matmul image has no function symbols")
			}
			rep := telemetry.Report(prof, st, 5)
			if len(rep) == 0 {
				t.Fatal("empty profile report")
			}
			hot := rep[0]
			if hot.Rank != 1 {
				t.Errorf("hot rank = %d", hot.Rank)
			}
			// The workload's only function symbol is main; the dot loop is
			// a body block, so it must symbolize to a main-relative offset.
			if !strings.HasPrefix(hot.Location, "main+0x") {
				t.Errorf("hot block location = %q, want main+0x...", hot.Location)
			}
			// The dot-product inner loop body runs ~n^3 times (its last
			// iteration per (i,j) pair exits through a different block) —
			// it must dominate.
			if hot.Dispatches < n*n*(n-1) {
				t.Errorf("hot block dispatches = %d, want >= %d", hot.Dispatches, n*n*(n-1))
			}
			if hot.CyclePct < 30 {
				t.Errorf("hot block cycle share = %.1f%%, want the dominant block", hot.CyclePct)
			}

			var folded bytes.Buffer
			telemetry.FoldedStacks(&folded, "matmul", prof, st)
			if lines := strings.Count(folded.String(), "\n"); lines != prof.Blocks() {
				t.Errorf("folded lines = %d, blocks = %d", lines, prof.Blocks())
			}
			var out bytes.Buffer
			telemetry.WriteTable(&out, prof, st, 10)
			out.WriteString("--\n")
			out.Write(folded.Bytes())
			path := filepath.Join("testdata", "guest_profile.golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("profile report drifted from %s\ngot:\n%s\nwant:\n%s", path, out.Bytes(), want)
			}
		})
	}
}

// TestProfilerOffUnchanged checks a profiler-off run is architecturally
// identical to a profiler-on run (the hook only observes).
func TestProfilerOffUnchanged(t *testing.T) {
	img, err := workload.Matmul(8, false, true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(prof bool) (uint64, uint64, uint64) {
		mem := emu.NewMemory()
		mem.MapImage(img)
		cpu := emu.NewCPU(mem, riscv.RV64GC)
		cpu.Reset(img)
		if prof {
			cpu.SetHooks(&instrument.Hooks{Prof: instrument.NewProfile()})
		}
		stop := cpu.Run(50_000_000)
		if stop.Kind != emu.StopEcall {
			t.Fatalf("unexpected stop: %+v", stop)
		}
		return cpu.Instret, cpu.Cycles, cpu.PC
	}
	i1, c1, p1 := run(false)
	i2, c2, p2 := run(true)
	if i1 != i2 || c1 != c2 || p1 != p2 {
		t.Errorf("profiler changed execution: (%d,%d,%#x) vs (%d,%d,%#x)", i1, c1, p1, i2, c2, p2)
	}
}
