package fuzzsvc

import (
	"math/rand"
	"testing"

	"github.com/eurosys26p57/chimera/internal/instrument"
)

// refFold is the reference coverage fold: bucketOf on every cell of the
// map and a full recount of the virgin edges, the way coverNew worked
// before it skipped zero words. Like coverNew, it reports a new edge count
// only when the fold was novel.
type refFold struct {
	virgin [instrument.CovMapSize]byte
	edges  int
}

func (r *refFold) fold(m *[instrument.CovMapSize]byte) bool {
	novel := false
	edges := 0
	for i, v := range m {
		if b := bucketOf(v); b != 0 && r.virgin[i]&b != b {
			r.virgin[i] |= b
			novel = true
		}
		if r.virgin[i] != 0 {
			edges++
		}
	}
	if novel {
		r.edges = edges
	}
	return novel
}

// edgeFeeder feeds a Coverage through Edge only, mirroring its edge chain
// (cell = id ^ prev, then prev = id>>1) so that each hit lands on a chosen
// cell. Coverage.Reset returns the chain to prev = 0; so must reset.
type edgeFeeder struct {
	cov  *instrument.Coverage
	prev uint32
}

func (d *edgeFeeder) hit(cell int) {
	id := uint32(cell) ^ d.prev
	d.cov.Edge(id)
	d.prev = id >> 1
}

func (d *edgeFeeder) reset() {
	d.cov.Reset()
	d.prev = 0
}

// fill raises every cell of the coverage map to want's count through Edge,
// visiting the cells in a random order.
func (d *edgeFeeder) fill(rng *rand.Rand, want *[instrument.CovMapSize]byte) {
	for _, i := range rng.Perm(len(want)) {
		for n := 0; n < int(want[i]); n++ {
			d.hit(i)
		}
	}
}

// TestCoverNewMatchesReference drives coverNew and the reference fold with
// the same bitmaps over many rounds — random dense, sparse, saturated,
// word-boundary and empty maps, each round folding into the virgin state
// the earlier rounds left — and requires identical novelty, virgin maps
// and edge counts after every fold. Each shape describes a map, which is
// then produced through Coverage.Edge alone, so coverNew reads the cells
// the coverage map itself recorded as touched.
func TestCoverNewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	order := rand.New(rand.NewSource(13)) // fill order, apart from the shapes' draws
	c := &Campaign{cov: instrument.NewCoverage()}
	d := &edgeFeeder{cov: c.cov}
	var ref refFold
	var want [instrument.CovMapSize]byte
	m := &want

	shapes := []struct {
		name string
		fill func()
	}{
		{"empty", func() {}},
		{"dense", func() {
			for i := range m {
				if rng.Intn(4) == 0 {
					m[i] = byte(rng.Intn(256))
				}
			}
		}},
		{"sparse", func() {
			for n := rng.Intn(64); n >= 0; n-- {
				m[rng.Intn(len(m))] = byte(1 + rng.Intn(255))
			}
		}},
		{"saturated", func() {
			for n := rng.Intn(512); n >= 0; n-- {
				m[rng.Intn(len(m))] = 255
			}
		}},
		{"word-boundary", func() {
			// The first and last byte of 8-byte words and 32-byte chunks,
			// and the ends of the map.
			for n := rng.Intn(32); n >= 0; n-- {
				w := rng.Intn(len(m)/8) * 8
				m[w] = byte(1 + rng.Intn(255))
				m[w+7] = byte(1 + rng.Intn(255))
			}
			m[0] = byte(1 + rng.Intn(255))
			m[len(m)-1] = byte(1 + rng.Intn(255))
			m[len(m)-32] = byte(1 + rng.Intn(255))
		}},
		{"every-count", func() {
			// One cell per raw count, so every bucket boundary is folded.
			base := rng.Intn(len(m) - 256)
			for v := 0; v < 256; v++ {
				m[base+v] = byte(v)
			}
		}},
	}
	for round := 0; round < 60; round++ {
		s := shapes[rng.Intn(len(shapes))]
		d.reset()
		want = [instrument.CovMapSize]byte{}
		s.fill()
		d.fill(order, &want)
		if c.cov.Map != want {
			t.Fatalf("round %d (%s): Edge did not reproduce the shape's map", round, s.name)
		}
		got, wantNovel := c.coverNew(), ref.fold(&c.cov.Map)
		if got != wantNovel {
			t.Fatalf("round %d (%s): coverNew novel=%v, reference %v", round, s.name, got, wantNovel)
		}
		if c.virgin != ref.virgin {
			for i := range c.virgin {
				if c.virgin[i] != ref.virgin[i] {
					t.Fatalf("round %d (%s): virgin[%d] = %#x, reference %#x",
						round, s.name, i, c.virgin[i], ref.virgin[i])
				}
			}
		}
		if c.edges != ref.edges {
			t.Fatalf("round %d (%s): edges %d, reference %d", round, s.name, c.edges, ref.edges)
		}
	}
	// Folding the same map twice is never novel the second time.
	if c.coverNew() {
		t.Error("refolding an already-folded map reported novelty")
	}
}
