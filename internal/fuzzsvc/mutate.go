package fuzzsvc

import (
	"bytes"
	"slices"
)

// havoc applies a stacked burst of random mutations to a corpus entry —
// the AFL havoc stage. Every choice draws from the campaign's seeded rng,
// so the mutation sequence replays deterministically. The result is built
// in the campaign's mutation buffer and is valid until the next havoc.
func (c *Campaign) havoc(base []byte) []byte {
	out := append(c.mut[:0], base...)
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
			out = openGap(out, p, len(tok))
			copy(out[p:], tok)
		case 5: // insert random bytes
			p := c.rng.Intn(len(out) + 1)
			k := 1 + c.rng.Intn(8)
			out = openGap(out, p, k)
			for j := p; j < p+k; j++ {
				out[j] = byte(c.rng.Intn(256))
			}
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
	c.mut = out
	return c.clamp(out)
}

// openGap grows b by n bytes and moves b[p:] up to make room, leaving
// b[p:p+n] for the caller to fill.
func openGap(b []byte, p, n int) []byte {
	b = slices.Grow(b, n)[:len(b)+n]
	copy(b[p+n:], b[p:])
	return b
}

// maxI2SPairs bounds how many distinct comparison pairs one harvest scans;
// maxI2SCands bounds candidates queued per harvest.
const (
	maxI2SPairs = 64
	maxI2SCands = 128
)

// harvest mines the execution's comparison log for input-to-state
// correspondence (the REDQUEEN idea): when one comparison operand's
// little-endian encoding appears verbatim in the input, queue a candidate
// with the other operand substituted at that position. Both operands also
// feed the havoc dictionary. Called only for corpus-admitted executions,
// so the candidate volume stays proportional to coverage progress.
func (c *Campaign) harvest(input []byte) {
	seen := make(map[[2]uint64]bool)
	pairs, cands := 0, 0
	for i := 0; i < c.cmp.Len() && pairs < maxI2SPairs && cands < maxI2SCands; i++ {
		e := c.cmp.Entry(i)
		if e.A == e.B {
			continue
		}
		key := [2]uint64{e.A, e.B}
		if seen[key] {
			continue
		}
		seen[key] = true
		pairs++
		cands += c.i2s(input, e.A, e.B, maxI2SCands-cands)
		cands += c.i2s(input, e.B, e.A, maxI2SCands-cands)
		c.addDictToken(e.A)
		c.addDictToken(e.B)
	}
}

// i2s queues up to budget candidates replacing occurrences of find's
// little-endian encoding in input with repl's, at widths where both fit.
func (c *Campaign) i2s(input []byte, find, repl uint64, budget int) int {
	queued := 0
	for _, w := range []int{8, 4, 2, 1} {
		if !fitsWidth(find, w) || !fitsWidth(repl, w) {
			continue
		}
		pat := leBytes(find, w)
		rep := leBytes(repl, w)
		for from, hits := 0, 0; hits < 4 && queued < budget; hits++ {
			p := bytes.Index(input[from:], pat)
			if p < 0 {
				break
			}
			p += from
			cand := append([]byte(nil), input...)
			copy(cand[p:], rep)
			if len(c.queue) < queueCap {
				c.queue = append(c.queue, cand)
				queued++
			}
			from = p + 1
		}
	}
	return queued
}

// addDictToken records a comparison operand's encodings as havoc tokens.
func (c *Campaign) addDictToken(v uint64) {
	if v == 0 || len(c.dict) >= dictCap {
		return
	}
	for _, w := range []int{1, 2, 4, 8} {
		if !fitsWidth(v, w) {
			continue
		}
		tok := leBytes(v, w)
		if key := string(tok); !c.dictSeen[key] {
			c.dictSeen[key] = true
			c.dict = append(c.dict, tok)
		}
		break // the narrowest fitting width is the canonical token
	}
}

func fitsWidth(v uint64, w int) bool {
	if w >= 8 {
		return true
	}
	return v < 1<<(8*w)
}

func leBytes(v uint64, w int) []byte {
	b := make([]byte, w)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
