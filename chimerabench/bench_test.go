package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
		{0.001, 1 * time.Millisecond},
	} {
		if got := s.percentile(tc.p); got != tc.want {
			t.Errorf("p%.3f = %v, want %v", tc.p, got, tc.want)
		}
	}
	if s[0] != 100*time.Millisecond {
		t.Error("percentile reordered its input")
	}
	// Three values: p50 is the second, p99 the third; no interpolation.
	three := samples{3 * time.Microsecond, 1 * time.Microsecond, 2 * time.Microsecond}
	if got := three.percentile(0.5); got != 2*time.Microsecond {
		t.Errorf("p50 of 3 = %v", got)
	}
	if got := three.percentile(0.99); got != 3*time.Microsecond {
		t.Errorf("p99 of 3 = %v", got)
	}
	if got := (samples{}).percentile(0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func imageSum(t *testing.T, img *obj.Image) [sha256.Size]byte {
	t.Helper()
	sum, err := img.SHA256()
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestColdRequestsSeededAndDistinct(t *testing.T) {
	const n = 64
	seen := make(map[[sha256.Size]byte]int)
	for i := 0; i < n; i++ {
		a, b := newColdRequest(7, 0, i), newColdRequest(7, 0, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("request %d differs between two generations", i)
		}
		ia, err := a.image()
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, a.Kind, err)
		}
		ib, err := b.image()
		if err != nil {
			t.Fatal(err)
		}
		sum := imageSum(t, ia)
		if sum != imageSum(t, ib) {
			t.Fatalf("request %d: same seed built different images", i)
		}
		if j, dup := seen[sum]; dup {
			t.Fatalf("requests %d and %d carry the same image", j, i)
		}
		seen[sum] = i
		other, err := newColdRequest(8, 0, i).image()
		if err != nil {
			t.Fatal(err)
		}
		if imageSum(t, other) == sum {
			t.Fatalf("request %d: seeds 7 and 8 built the same image", i)
		}
		warm, err := newColdRequest(7, streamColdWarm, i).image()
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[imageSum(t, warm)]; dup {
			t.Fatalf("warm-up image %d collides with a measured one", i)
		}
	}
	// Every block of eight holds each kind once and Resolve four times.
	for block := 0; block < n/len(coldKinds); block++ {
		kinds := make(map[string]int)
		resolve := 0
		for k := 0; k < len(coldKinds); k++ {
			r := newColdRequest(7, 0, block*len(coldKinds)+k)
			kinds[r.Kind]++
			if r.Resolve {
				resolve++
			}
		}
		if len(kinds) != len(coldKinds) || resolve != len(coldKinds)/2 {
			t.Fatalf("block %d: kinds %v, resolve %d", block, kinds, resolve)
		}
	}
}

func TestServeCatalogShape(t *testing.T) {
	table := serveRankTable()
	used := make(map[int]bool)
	for r, e := range table {
		if e < 0 || e >= serveEntries || used[e] {
			t.Fatalf("rank %d maps to %d: not a permutation", r, e)
		}
		used[e] = true
		isLargeRank := false
		for _, lr := range serveLargeRanks {
			isLargeRank = isLargeRank || lr == r
		}
		if serveLarge(e) != isLargeRank {
			t.Fatalf("rank %d holds entry %d, large=%v", r, e, serveLarge(e))
		}
	}
	seen := make(map[[sha256.Size]byte]int)
	for j := 0; j < serveImages; j++ {
		p := serveSpec(11, j)
		if !reflect.DeepEqual(p, serveSpec(11, j)) {
			t.Fatalf("image %d: spec not deterministic", j)
		}
		if p.CodeKB != serveSizesKB[j] || (p.VecFuncs > 8) != serveHeavy(j) {
			t.Fatalf("image %d: size %d KiB, %d vector functions", j, p.CodeKB, p.VecFuncs)
		}
		img, err := workload.BuildSpec(p, true)
		if err != nil {
			t.Fatal(err)
		}
		sum := imageSum(t, img)
		if k, dup := seen[sum]; dup {
			t.Fatalf("catalog images %d and %d are identical", k, j)
		}
		seen[sum] = j
	}
}

func TestFuzzCampaignSeeds(t *testing.T) {
	seen := make(map[int64]bool)
	for j := 0; j < 1000; j++ {
		s := fuzzCampaignSeed(3, j)
		if s != fuzzCampaignSeed(3, j) || seen[s] {
			t.Fatalf("campaign %d: seed %d not deterministic or repeated", j, s)
		}
		seen[s] = true
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(wl, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", wl, code)
	}
	var gate, layers []m
	for _, g := range gateMetrics {
		gate = append(gate, m{g.name, g.unit})
	}
	for _, l := range layerMetrics {
		layers = append(layers, m{l.name, l.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, gate) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", spec.EndToEnd, gate)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", spec.PerLayer, layers)
	}
}

func TestDeterminismRecordFlagsDifferences(t *testing.T) {
	o := opts{seed: 5, outDir: t.TempDir(), rev: "src-sha256:aaaa"}
	run := func(o opts, digest string) check {
		t.Helper()
		r := newReport("w")
		r.Det["digest"] = digest
		if err := r.compareDeterminism(o); err != nil {
			t.Fatal(err)
		}
		return r.Checks[len(r.Checks)-1]
	}
	if c := run(o, "aa"); !c.OK {
		t.Fatalf("first run: %s", c.Detail)
	}
	if c := run(o, "aa"); !c.OK {
		t.Fatalf("same values: %s", c.Detail)
	}
	if c := run(o, "bb"); c.OK {
		t.Fatal("changed values under the same revision were not flagged")
	}
	// Another revision may change the values on purpose: it starts a record
	// of its own, and the first revision's record is kept.
	other := o
	other.rev = "src-sha256:bbbb"
	if c := run(other, "bb"); !c.OK {
		t.Fatalf("new revision compared against another revision's record: %s", c.Detail)
	}
	if c := run(other, "cc"); c.OK {
		t.Fatal("changed values under the new revision were not flagged")
	}
	if c := run(o, "aa"); !c.OK {
		t.Fatalf("first revision's record lost: %s", c.Detail)
	}
}

func TestSourceRevisionTracksUncommittedEdits(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) {
		if err := os.WriteFile(dir+"/a.go", []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("package a\n")
	before := sourceRevision(dir)
	if before != sourceRevision(dir) {
		t.Fatal("same tree, different revisions")
	}
	write("package a // edited\n")
	if sourceRevision(dir) == before {
		t.Fatal("an edit did not change the revision")
	}
}

// TestWorkloadSmoke runs every workload briefly, untraced and traced, and
// requires every correctness check to pass.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := opts{seed: 1, dur: 1500 * time.Millisecond, traced: traced, outDir: t.TempDir(), onlyOne: true}
			rep, err := w.run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.name, traced, rep.Attempted, rep.Failed)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, traced, c.Name, c.Detail)
				}
			}
			final := finalMetrics(rep, o)
			want := len(gateMetrics)
			if traced {
				want = len(layerMetrics)
			}
			if len(final) != want {
				t.Errorf("%s traced=%v: %d final metrics, want %d", w.name, traced, len(final), want)
			}
			if !traced {
				for _, g := range gateMetrics {
					if v := final[g.name]; v.Value <= 0 || v.Unit != g.unit {
						t.Errorf("%s: %s = %v %s", w.name, g.name, v.Value, v.Unit)
					}
				}
			}
		}
	}
}
