package main

import (
	"fmt"
	"math/rand"

	"github.com/eurosys26p57/chimera/internal/obj"
	"github.com/eurosys26p57/chimera/internal/workload"
)

// Every input is a pure function of the workload seed and a small path of
// integers (stream, index): the same seed always yields the same images,
// request order and campaign seeds, on any machine.

// mix derives an independent stream seed from the workload seed and a path
// (splitmix64 chaining).
func mix(seed int64, path ...int64) int64 {
	x := splitmix(uint64(seed))
	for _, p := range path {
		x = splitmix(x ^ splitmix(uint64(p)))
	}
	return int64(x >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream tags keep the generators' random streams apart.
const (
	streamColdOrder = iota + 1
	streamColdResolve
	streamColdImage
	streamColdWarm
	streamServeImage
	streamServeClient
	streamFuzzCampaign
	streamFuzzInput
	streamFuzzWarm
)

// coldKind is one request class of rewrite_cold.
type coldKind struct {
	name   string
	spec   bool // SPEC-shaped (workload.BuildSpec), else dispatch
	vector bool // RVV build
	heavy  bool // more than eight vector functions: chbp's output jumps to ~2 MiB
	noVec  bool // no vector blocks at all
	method string
	target string
}

// coldKinds is the rewrite_cold mix. Every block of eight consecutive
// requests holds each kind exactly once, in a seeded order, so the share of
// each kind — and in particular of the ~2 MiB vector-heavy downgrades, one
// in eight — is fixed by construction instead of drawn. A drawn share would
// move the byte totals, and with them every latency, from seed to seed.
var coldKinds = [8]coldKind{
	{name: "spec-heavy/chbp-down", spec: true, vector: true, heavy: true, method: "chbp", target: "rv64gc"},
	{name: "spec/chbp-down", spec: true, vector: true, method: "chbp", target: "rv64gc"},
	{name: "spec-base/chbp-up", spec: true, method: "chbp", target: "rv64gcv"},
	{name: "spec-novec/chbp-up", spec: true, noVec: true, method: "chbp", target: "rv64gcv"},
	{name: "spec/safer", spec: true, vector: true, method: "safer", target: "rv64gc"},
	{name: "spec/armore", spec: true, vector: true, method: "armore", target: "rv64gc"},
	{name: "dispatch/chbp-down", vector: true, method: "chbp", target: "rv64gc"},
	{name: "dispatch/baseline", vector: true, target: "rv64gc"}, // safer or armore, drawn
}

var dispatchBounds = []workload.BoundKind{workload.BoundREMU, workload.BoundBGEU, workload.BoundSLTIU, workload.BoundBLTU}

// coldRequest is one rewrite_cold request before its image is built.
type coldRequest struct {
	Index    int
	Kind     string
	Method   string
	Target   string
	Resolve  bool
	vector   bool
	spec     *workload.SpecParams
	dispatch *workload.DispatchParams
}

// newColdRequest returns request i of a rewrite_cold stream. The measured
// sequence is stream 0; set-up warm-up uses streamColdWarm so its images
// never collide with measured ones. Resolve is on for exactly half of every
// block of eight.
func newColdRequest(seed int64, stream int64, i int) coldRequest {
	n := len(coldKinds)
	block := int64(i / n)
	order := rand.New(rand.NewSource(mix(seed, stream, streamColdOrder, block))).Perm(n)
	resolveOrder := rand.New(rand.NewSource(mix(seed, stream, streamColdResolve, block))).Perm(n)
	k := coldKinds[order[i%n]]
	rng := rand.New(rand.NewSource(mix(seed, stream, streamColdImage, int64(i))))
	r := coldRequest{
		Index:   i,
		Kind:    k.name,
		Method:  k.method,
		Target:  k.target,
		Resolve: resolveOrder[i%n] < n/2,
		vector:  k.vector,
	}
	name := fmt.Sprintf("cold-%d-%d", stream, i)
	if k.spec {
		funcs := 9 + rng.Intn(8)
		vec := 1 + rng.Intn(7)
		switch {
		case k.heavy:
			vec = 9 + rng.Intn(funcs-8)
		case k.noVec:
			vec = 0
		}
		p := workload.SpecParams{
			Name:              name,
			CodeKB:            16 + rng.Intn(113), // 16–128 KiB
			Funcs:             funcs,
			VecFuncs:          vec,
			BodyInsts:         20 + rng.Intn(100),
			IndirectEvery:     1 + rng.Intn(12),
			PressureFuncs:     vec * 3 / 8,
			HardPressureFuncs: rng.Intn(2),
			Rounds:            60,
			Seed:              rng.Int63(),
		}
		if vec > 0 {
			p.ErrEntryEvery = 40 + rng.Intn(160)
		}
		r.spec = &p
		return r
	}
	if r.Method == "" {
		r.Method = []string{"safer", "armore"}[rng.Intn(2)]
	}
	arms := 2 + rng.Intn(15)
	r.dispatch = &workload.DispatchParams{
		Name:        name,
		Arms:        arms,
		VecArms:     1 + rng.Intn(arms),
		Rounds:      1000 + int64(i), // distinct code per request, not just a distinct name
		Compress:    rng.Intn(2) == 0,
		TableInData: rng.Intn(2) == 0,
		MidEntry:    rng.Intn(2) == 0,
		Bound:       dispatchBounds[rng.Intn(len(dispatchBounds))],
	}
	return r
}

// image builds the request's input image.
func (r coldRequest) image() (*obj.Image, error) {
	if r.spec != nil {
		return workload.BuildSpec(*r.spec, r.vector)
	}
	return workload.BuildDispatch(*r.dispatch, r.vector)
}

// serve_mixed catalog shape. Everything that sets how much work a request
// is — image sizes, which entries are large, the Zipf rank of every entry —
// is fixed here by construction; the seed only varies instruction content
// and the request draw. In trial runs a catalog with a drawn 50/50 share of
// ~2 MiB entries made the hit p50 jump between 4.7 ms and 22 ms from seed to
// seed.
const (
	serveImages   = 12
	serveVariants = 4 // rewrite variants per image, see serveVariant
	serveEntries  = serveImages * serveVariants
	serveRounds   = 60 // guest main-loop rounds: ~0.4 M instructions per /run on average
	serveRunShare = 0.2
	serveZipfS    = 1.1
)

// serveSizesKB is each catalog image's code size.
var serveSizesKB = [serveImages]int{16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 120, 128}

// serveHeavy reports whether catalog image j is vector-heavy: its chbp
// downgrade is one of the three ~2 MiB entries (3 of 48 catalog entries).
func serveHeavy(j int) bool { return j%4 == 3 }

// serveLargeRanks are the Zipf ranks the three large entries occupy. With
// s=1.1 over 48 ranks they draw about 5% of hits, whatever the seed.
var serveLargeRanks = [3]int{5, 17, 29}

// serveVariant is one catalog rewrite of an image.
type serveVariant struct {
	name       string
	method     string
	target     string
	emptyPatch bool
}

var serveVariantList = [serveVariants]serveVariant{
	{name: "chbp-down", method: "chbp", target: "rv64gc"},
	{name: "chbp-empty", method: "chbp", target: "rv64gcv", emptyPatch: true},
	{name: "safer", method: "safer", target: "rv64gc"},
	{name: "armore", method: "armore", target: "rv64gc"},
}

// serveRunImages are the catalog images /run executes, three ways each
// (original on rv64gcv, chbp downgrade on rv64gc, chbp empty patch on
// rv64gcv). The vector-heavy images are left out so no /run uploads 2 MiB.
var serveRunImages = [6]int{0, 1, 2, 4, 5, 6}

// serveSpec returns catalog image j's generator parameters. Every shape
// parameter is fixed by j; the seed only picks the instruction mix. With
// drawn shapes the guest work behind the /run mix varied by ±20% from seed
// to seed and moved every serve_mixed figure with it.
func serveSpec(seed int64, j int) workload.SpecParams {
	vec := 2 + j%6
	if serveHeavy(j) {
		vec = 9 + j/4
	}
	return workload.SpecParams{
		Name:              fmt.Sprintf("serve-%d", j),
		CodeKB:            serveSizesKB[j],
		Funcs:             12,
		VecFuncs:          vec,
		BodyInsts:         60,
		IndirectEvery:     4,
		ErrEntryEvery:     60,
		PressureFuncs:     vec * 3 / 8,
		HardPressureFuncs: 1,
		Rounds:            serveRounds,
		Seed:              mix(seed, streamServeImage, int64(j)),
	}
}

// serveLarge reports whether catalog entry e (image*serveVariants+variant)
// is one of the large entries.
func serveLarge(e int) bool { return serveHeavy(e/serveVariants) && e%serveVariants == 0 }

// serveRankTable maps Zipf rank to catalog entry. It does not depend on the
// seed: the large entries sit at serveLargeRanks and the others fill the
// remaining ranks in a fixed shuffled order.
func serveRankTable() [serveEntries]int {
	var large, small []int
	for e := 0; e < serveEntries; e++ {
		if serveLarge(e) {
			large = append(large, e)
		} else {
			small = append(small, e)
		}
	}
	var table [serveEntries]int
	for r := range table {
		table[r] = -1
	}
	for i, r := range serveLargeRanks {
		table[r] = large[i]
	}
	perm := rand.New(rand.NewSource(1)).Perm(len(small))
	next := 0
	for r := range table {
		if table[r] < 0 {
			table[r] = small[perm[next]]
			next++
		}
	}
	return table
}

// fuzz_campaign campaign shape: the campaign the repository's own campaign
// smoke and nightly CI job run (chimera-fuzz -campaign-execs 30000
// -campaign-input 64 -campaign-budget 200000), so per-campaign set-up and
// triage are amortized over as many execs as in real use. Every seed tried
// finds the planted crash within 70 executions; triage may run past MaxExecs
// by design.
const (
	fuzzMaxExecs   = 30_000
	fuzzMaxInput   = 64
	fuzzExecBudget = 200_000
)

// fuzzWarmExecs is the length of each set-up's warm-up campaign: long enough
// to find and triage the planted crash, short enough to keep set-up cheap.
const fuzzWarmExecs = 2000

// fuzzCampaignSeed returns campaign j's engine seed.
func fuzzCampaignSeed(seed int64, j int) int64 { return mix(seed, streamFuzzCampaign, int64(j)) }
