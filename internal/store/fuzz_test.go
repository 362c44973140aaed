package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeEntry hammers the entry codec the disk tier and the peer
// protocol share. Properties: DecodeEntry never panics, every error it
// returns is ErrCorrupt, whatever it accepts carries a sealed checksum that
// is the hash of its bytes, and it re-encodes to exactly the input bytes —
// so no two encodings decode to the same entry and a verified entry can be
// shipped on unchanged.
func FuzzDecodeEntry(f *testing.F) {
	for _, e := range []*Entry{
		testEntry("m=chbp;img=seed", 96, 1),
		{Key: "k", Data: []byte{}},
		{Key: "no-meta", Data: []byte("data")},
	} {
		valid := EncodeEntry(e)
		f.Add(valid)
		f.Add(valid[:headerLen])
		f.Add(valid[:len(valid)-1])
		for _, bit := range []int{3, 8 * 9, 8 * 30, 8*len(valid) - 1} {
			flipped := append([]byte(nil), valid...)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add(entryMagic[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeEntry(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not match ErrCorrupt", err)
			}
			return
		}
		if !e.sealed || e.sum != e.Sum() {
			t.Fatal("decoded entry's sealed checksum is not the hash of its bytes")
		}
		if got := EncodeEntry(e); !bytes.Equal(got, b) {
			t.Fatalf("decoded entry re-encodes to %d different bytes (input %d)", len(got), len(b))
		}
	})
}
