package bench

import (
	"fmt"
	"sort"
	"testing"

	"github.com/eurosys26p57/chimera/internal/kernel"
	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// resolvePopulation is the indirect-heavy population the resolver metrics
// are measured over: dispatch-family configurations spanning arm counts,
// vector pressure, bound idioms, compressed encodings, and mid-arm
// entries. Heavier configurations fault more when the resolver is off, so
// the population has the skewed per-task latency distribution the p99
// comparison needs.
func resolvePopulation() []workload.DispatchParams {
	bounds := []workload.BoundKind{
		workload.BoundREMU, workload.BoundBGEU, workload.BoundSLTIU, workload.BoundBLTU,
	}
	var pop []workload.DispatchParams
	i := 0
	for _, arms := range []int{2, 3, 4, 6, 8} {
		for _, vec := range []int{arms / 2, arms - 1} {
			if vec < 1 {
				vec = 1
			}
			pop = append(pop, workload.DispatchParams{
				Name:     fmt.Sprintf("dispatch-a%d-v%d-%d", arms, vec, i),
				Arms:     arms,
				VecArms:  vec,
				Rounds:   24,
				Bound:    bounds[i%len(bounds)],
				MidEntry: i%3 == 0,
				Compress: i%2 == 1,
			})
			i++
		}
	}
	return pop
}

// resolveTask is one prepared population member: the original RV64GCV
// image plus its downgraded variant under a given rewriter config.
type resolveTask struct {
	name     string
	variants []kernel.Variant
}

// prepareResolveTasks rewrites the whole population for a base core under
// one rewriter config (method × resolver on/off).
func prepareResolveTasks(tb testing.TB, method string, resolveOn bool) []resolveTask {
	tb.Helper()
	var tasks []resolveTask
	for _, p := range resolvePopulation() {
		img, err := workload.BuildDispatch(p, true)
		if err != nil {
			tb.Fatal(err)
		}
		rw, err := rewriters.Rewrite(img, method, rewriters.Options{Target: riscv.RV64GC, Resolve: resolveOn})
		if err != nil {
			tb.Fatalf("%s %s: %v", p.Name, method, err)
		}
		tasks = append(tasks, resolveTask{
			name: p.Name,
			variants: []kernel.Variant{
				{ISA: riscv.RV64GCV, Image: img},
				rw.Variant(),
			},
		})
	}
	return tasks
}

// resolveRun is one pass over a prepared population on a base core.
type resolveRun struct {
	faults  uint64 // runtime-rewrite faults taken (first executions of hidden vector code)
	avoided uint64 // faults avoided by resolver pre-materialization
	crashes uint64 // tasks killed by a signal (Safer's incomplete-disassembly failure mode)
	cycles  []uint64
	exits   []uint64
}

func runResolveTasks(tb testing.TB, tasks []resolveTask) *resolveRun {
	tb.Helper()
	r := &resolveRun{}
	for _, tk := range tasks {
		p, err := kernel.NewProcess(tk.name, tk.variants)
		if err != nil {
			tb.Fatal(err)
		}
		cycles, err := RunOnCore(p, riscv.RV64GC)
		if err != nil {
			// A hidden indirect target that the rewriter never regenerated
			// lands in unmapped original space and kills the process. This
			// is Safer's real resolver-off behavior on the population, so
			// record it as data instead of failing the measurement.
			r.crashes++
			r.exits = append(r.exits, p.ExitCode)
			continue
		}
		r.faults += p.Counters.RuntimeRewrites
		r.avoided += p.Counters.RewriteFaultsAvoided
		r.cycles = append(r.cycles, cycles)
		r.exits = append(r.exits, p.ExitCode)
	}
	return r
}

// percentile returns the q-th per-task cycle percentile (nearest rank),
// or 0 when no task survived.
func percentile(cycles []uint64, q float64) float64 {
	if len(cycles) == 0 {
		return 0
	}
	s := append([]uint64(nil), cycles...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return float64(s[idx])
}

// benchmarkResolve measures one rewriter config over the population. One
// op is a full pass (every task run once on a fresh process, so first-
// execution faults recur every op); faults/op and avoided/op are per-task
// means, p50/p99 the per-task cycle percentiles in kcycles.
func benchmarkResolve(b *testing.B, method string, resolveOn bool) {
	tasks := prepareResolveTasks(b, method, resolveOn)
	b.ResetTimer()
	var run *resolveRun
	for i := 0; i < b.N; i++ {
		run = runResolveTasks(b, tasks)
	}
	n := float64(len(tasks))
	b.ReportMetric(float64(run.faults)/n, "faults/op")
	b.ReportMetric(float64(run.avoided)/n, "avoided/op")
	b.ReportMetric(float64(run.crashes)/n, "crashed/op")
	b.ReportMetric(percentile(run.cycles, 0.50)/1000, "p50-kcycles")
	b.ReportMetric(percentile(run.cycles, 0.99)/1000, "p99-kcycles")
}

// BenchmarkResolve publishes the resolver's end-to-end effect per rewriter
// config: runtime-rewrite fault rate and per-task latency percentiles on
// the indirect-heavy population, resolver off vs on (scripts/bench.sh
// distills these rows into BENCH_emu.json).
func BenchmarkResolve(b *testing.B) {
	for _, method := range []string{"chbp", "safer", "armore"} {
		for _, on := range []bool{false, true} {
			mode := "off"
			if on {
				mode = "on"
			}
			b.Run(method+"-"+mode, func(b *testing.B) {
				benchmarkResolve(b, method, on)
			})
		}
	}
}

// TestResolverFaultReduction pins the PR's acceptance metric: on the
// indirect-heavy synthetic family, resolver-on CHBP must cut runtime-
// rewrite faults at least 5x versus resolver-off (it actually eliminates
// them), credit at least as many avoided faults as resolver-off took, and
// improve the per-task p99.
func TestResolverFaultReduction(t *testing.T) {
	off := runResolveTasks(t, prepareResolveTasks(t, "chbp", false))
	on := runResolveTasks(t, prepareResolveTasks(t, "chbp", true))
	if off.crashes != 0 || on.crashes != 0 {
		t.Fatalf("chbp is address-preserving and must not crash: off %d, on %d",
			off.crashes, on.crashes)
	}
	for i := range off.exits {
		if off.exits[i] != on.exits[i] {
			t.Fatalf("task %d exits differ: off %d, on %d — correctness violated",
				i, off.exits[i], on.exits[i])
		}
	}
	if off.faults < 5 {
		t.Errorf("resolver-off faults = %d, want >= 5 (hidden arms should fault)", off.faults)
	}
	if on.faults != 0 {
		t.Errorf("resolver-on faults = %d, want 0", on.faults)
	}
	if on.faults*5 > off.faults {
		t.Errorf("fault reduction below 5x: off %d, on %d", off.faults, on.faults)
	}
	if on.avoided < off.faults {
		t.Errorf("avoided %d < resolver-off faults %d: pre-materialization under-covers",
			on.avoided, off.faults)
	}
	if p99off, p99on := percentile(off.cycles, 0.99), percentile(on.cycles, 0.99); p99on >= p99off {
		t.Errorf("resolver-on p99 %.0f not below resolver-off p99 %.0f", p99on, p99off)
	}
}
