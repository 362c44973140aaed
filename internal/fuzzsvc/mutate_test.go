package fuzzsvc

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"
)

// refHavoc is havoc as it was written before it reused a buffer:
// a fresh output slice and nested-append inserts. It is the reference the
// allocation-free havoc must match byte for byte and draw for draw.
func refHavoc(c *Campaign, base []byte) []byte {
	out := append([]byte(nil), base...)
	if len(out) == 0 {
		out = append(out, 0)
	}
	n := 1 << (1 + c.rng.Intn(4)) // 2..16 stacked mutations
	for i := 0; i < n; i++ {
		switch c.rng.Intn(8) {
		case 0: // flip one bit
			p := c.rng.Intn(len(out))
			out[p] ^= 1 << c.rng.Intn(8)
		case 1: // random byte
			out[c.rng.Intn(len(out))] = byte(c.rng.Intn(256))
		case 2: // arithmetic nudge
			p := c.rng.Intn(len(out))
			out[p] += byte(c.rng.Intn(71) - 35)
		case 3: // overwrite with a dictionary token
			if len(c.dict) == 0 {
				continue
			}
			tok := c.dict[c.rng.Intn(len(c.dict))]
			p := c.rng.Intn(len(out))
			copy(out[p:], tok)
		case 4: // insert a dictionary token
			if len(c.dict) == 0 {
				continue
			}
			tok := c.dict[c.rng.Intn(len(c.dict))]
			p := c.rng.Intn(len(out) + 1)
			out = append(out[:p], append(append([]byte(nil), tok...), out[p:]...)...)
		case 5: // insert random bytes
			p := c.rng.Intn(len(out) + 1)
			k := 1 + c.rng.Intn(8)
			ins := make([]byte, k)
			for j := range ins {
				ins[j] = byte(c.rng.Intn(256))
			}
			out = append(out[:p], append(ins, out[p:]...)...)
		case 6: // delete a range
			if len(out) < 2 {
				continue
			}
			p := c.rng.Intn(len(out))
			k := 1 + c.rng.Intn(len(out)-p)
			out = append(out[:p], out[p+k:]...)
			if len(out) == 0 {
				out = append(out, 0)
			}
		case 7: // duplicate a range over another position
			if len(out) < 2 {
				continue
			}
			src := c.rng.Intn(len(out))
			k := 1 + c.rng.Intn(min(8, len(out)-src))
			dst := c.rng.Intn(len(out))
			copy(out[dst:], out[src:src+k])
		}
	}
	return c.clamp(out)
}

// TestHavocMatchesReference runs havoc and refHavoc side by side from the
// same rng seed over many seeds, dictionaries (none, one short token, a mix
// of widths) and input limits, feeding each output back as the next base
// the way a corpus grows. Every output must be byte-identical and both rngs
// must stay in lockstep, so campaigns replay the same exec sequence.
func TestHavocMatchesReference(t *testing.T) {
	dicts := [][][]byte{
		nil,
		{{0x7f}},
		{{0x01}, {0x34, 0x12}, {0xef, 0xbe, 0xad, 0xde}, {1, 2, 3, 4, 5, 6, 7, 8}},
	}
	for seed := int64(0); seed < 64; seed++ {
		for di, dict := range dicts {
			for _, maxInput := range []int{1, 16, 256} {
				got := &Campaign{cfg: Config{MaxInput: maxInput}, rng: rand.New(rand.NewSource(seed)), dict: dict}
				want := &Campaign{cfg: Config{MaxInput: maxInput}, rng: rand.New(rand.NewSource(seed)), dict: dict}
				base := []byte(nil)
				if seed%3 != 0 {
					base = bytes.Repeat([]byte{byte(seed)}, int(seed)%maxInput)
				}
				for step := 0; step < 200; step++ {
					g, w := got.havoc(base), refHavoc(want, base)
					if !bytes.Equal(g, w) {
						t.Fatalf("seed %d dict %d max %d step %d: havoc %x, reference %x",
							seed, di, maxInput, step, g, w)
					}
					if a, b := got.rng.Int63(), want.rng.Int63(); a != b {
						t.Fatalf("seed %d dict %d max %d step %d: rng out of step", seed, di, maxInput, step)
					}
					if step%5 != 4 {
						base = append([]byte(nil), w...)
					}
				}
			}
		}
	}
}

// TestRecordMatchesFNV checks the inline hash chain against hash/fnv's
// FNV-64a over the same byte layout record has always hashed.
func TestRecordMatchesFNV(t *testing.T) {
	c := &Campaign{trace: fnv.New64a().Sum64()}
	ref := c.trace
	put64 := func(buf []byte, v uint64) []byte {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
		return buf
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		input := make([]byte, rng.Intn(40))
		rng.Read(input)
		res := execResult{kind: execKind(rng.Intn(4)), signal: rng.Intn(32), pc: rng.Uint64(), exit: rng.Uint64()}
		var b []byte
		b = put64(b, ref)
		b = put64(b, uint64(i))
		b = put64(b, uint64(len(input)))
		b = append(b, input...)
		b = put64(b, uint64(res.kind))
		b = put64(b, uint64(res.signal))
		b = put64(b, res.pc)
		b = put64(b, res.exit)
		h := fnv.New64a()
		h.Write(b)
		ref = h.Sum64()
		c.record(input, res)
		if c.trace != ref {
			t.Fatalf("exec %d: chain %016x, hash/fnv %016x", i, c.trace, ref)
		}
	}
}

// BenchmarkHavoc measures one mutation step with a populated dictionary.
// Its output reuses the campaign's mutation buffer, so after warm-up it must
// not allocate; scripts/check.sh gates it at 0 allocs/op.
func BenchmarkHavoc(b *testing.B) {
	c := &Campaign{
		cfg:  Config{MaxInput: 64},
		rng:  rand.New(rand.NewSource(1)),
		dict: [][]byte{{0x01}, {0x34, 0x12}, {0xef, 0xbe, 0xad, 0xde}, {1, 2, 3, 4, 5, 6, 7, 8}},
	}
	base := bytes.Repeat([]byte{0x5a}, 48)
	for i := 0; i < 1000; i++ {
		c.havoc(base)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.havoc(base)
	}
}
