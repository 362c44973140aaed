package rewriters

import (
	"bytes"
	"sync"
	"testing"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/riscv"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// raceImage builds a small SPEC-shaped binary with vector blocks, liveness
// pressure, and indirect jumps — enough to drive every rewriter's analysis
// passes, small enough that 32 concurrent rewrites stay fast under -race.
func raceImage(t *testing.T) *obj.Image {
	t.Helper()
	img, err := workload.BuildSpec(workload.SpecParams{
		Name: "race", CodeKB: 48, Funcs: 6, VecFuncs: 4, BodyInsts: 24,
		IndirectEvery: 3, ErrEntryEvery: 10, PressureFuncs: 1,
		HardPressureFuncs: 1, Rounds: 4, Seed: 77,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func wireBytes(t *testing.T, img *obj.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRewritersConcurrentRace runs CHBP and all three baselines from 8
// goroutines each on Clone()d inputs. Under -race this flushes out any
// shared mutable package state (lazily-built tables, memoized maps); it
// also asserts each rewrite is deterministic by comparing the serialized
// output against a serial reference.
func TestRewritersConcurrentRace(t *testing.T) {
	src := raceImage(t)
	target := riscv.RV64GC

	// Serial reference per method.
	run := func(method string) (*obj.Image, error) {
		res, err := Rewrite(src.Clone(), method, Options{Target: target})
		if err != nil {
			return nil, err
		}
		return res.Image, nil
	}
	want := make(map[string][]byte)
	for _, m := range Methods() {
		out, err := run(m)
		if err != nil {
			t.Fatalf("%s reference: %v", m, err)
		}
		want[m] = wireBytes(t, out)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(Methods())*goroutines)
	for _, m := range Methods() {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(m string) {
				defer wg.Done()
				out, err := run(m)
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				if _, err := out.WriteTo(&buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), want[m]) {
					t.Errorf("%s: concurrent rewrite differs from serial reference", m)
				}
			}(m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
