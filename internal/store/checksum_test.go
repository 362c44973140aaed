package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// hashesDuring runs f and returns how many Entry.Sum calls it made. The
// counter is package-global, so no test in this package runs in parallel.
func hashesDuring(f func()) uint64 {
	before := sums.Load()
	f()
	return sums.Load() - before
}

func newTiered(t *testing.T) *Tiered {
	t.Helper()
	disk, err := OpenDisk(t.TempDir(), 1<<30, Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewTiered(NewMemory(1<<20, Counters{}), disk, TierCounters{})
}

func sealedEntry(key string, size int, seed int64) *Entry {
	e := testEntry(key, size, seed)
	return NewEntry(e.Key, e.Meta, e.Data)
}

// TestTieredPutHashesOnce: a fresh entry written through memory and disk
// is hashed once, by NewEntry; a sealed re-put of a resident key hashes
// nothing.
func TestTieredPutHashesOnce(t *testing.T) {
	tr := newTiered(t)
	if n := hashesDuring(func() { tr.Put(sealedEntry("k", 4096, 1)) }); n != 1 {
		t.Fatalf("NewEntry + Tiered.Put hashed %d times, want 1", n)
	}
	again := sealedEntry("k", 4096, 1)
	if n := hashesDuring(func() { tr.Put(again) }); n != 0 {
		t.Fatalf("sealed re-put of a resident key hashed %d times, want 0", n)
	}
	if got, tier, ok := tr.Get("k"); !ok || tier != TierMemory || !entriesEqual(got, testEntry("k", 4096, 1)) {
		t.Fatalf("stored entry not served from memory: ok=%t tier=%q", ok, tier)
	}
}

// TestDiskPromoteHashesOnce: a disk hit is verified by DecodeEntry, and
// the promote into memory reuses that sum; the next memory hit re-hashes.
func TestDiskPromoteHashesOnce(t *testing.T) {
	tr := newTiered(t)
	tr.Put(sealedEntry("k", 4096, 1))
	tr.Mem().Delete("k")
	var tier string
	if n := hashesDuring(func() { _, tier, _ = tr.Get("k") }); n != 1 || tier != TierDisk {
		t.Fatalf("disk-hit promote hashed %d times from tier %q, want 1 from disk", n, tier)
	}
	if n := hashesDuring(func() { _, tier, _ = tr.Get("k") }); n != 1 || tier != TierMemory {
		t.Fatalf("memory hit after promote hashed %d times from tier %q, want 1 from memory", n, tier)
	}
}

// TestDecodePutHashesOnce: an entry received as bytes (a peer PUT or a
// peer fetch) is hashed once, by DecodeEntry, however many tiers store it.
func TestDecodePutHashesOnce(t *testing.T) {
	tr := newTiered(t)
	buf := EncodeEntry(testEntry("k", 4096, 1))
	n := hashesDuring(func() {
		e, err := DecodeEntry(buf)
		if err != nil {
			t.Fatal(err)
		}
		tr.Put(e)
	})
	if n != 1 {
		t.Fatalf("DecodeEntry + Tiered.Put hashed %d times, want 1", n)
	}
}

// TestEncodeSealedHashesOnce: encoding a sealed entry (a peer GET body, a
// peer offer, a disk write) reuses the sealed sum, and yields exactly the
// bytes an unsealed copy encodes to.
func TestEncodeSealedHashesOnce(t *testing.T) {
	var buf []byte
	if n := hashesDuring(func() { buf = EncodeEntry(sealedEntry("k", 4096, 1)) }); n != 1 {
		t.Fatalf("NewEntry + EncodeEntry hashed %d times, want 1", n)
	}
	if !bytes.Equal(buf, EncodeEntry(testEntry("k", 4096, 1))) {
		t.Fatal("sealed and unsealed entries encode differently")
	}
}

// TestEntryWireGolden pins the entry wire format: these digests of
// EncodeEntry output were taken before checksums were sealed into entries,
// and sealed entries must encode to the same bytes.
func TestEntryWireGolden(t *testing.T) {
	for _, c := range []struct {
		e    *Entry
		want string
	}{
		{testEntry("m=chbp;img=wire", 300, 5), "a8cc6885397b19b5464539bddf7bb6a6d0de76cec713d4927c97ad1ce1baa572"},
		{&Entry{Key: "k"}, "93335fb89b6fac6290ffaca2320da307ccd359652efb79467542915d5197eb02"},
	} {
		for _, e := range []*Entry{c.e, NewEntry(c.e.Key, c.e.Meta, c.e.Data)} {
			sum := sha256.Sum256(EncodeEntry(e))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("EncodeEntry(%q, sealed=%t) digest %s, want %s", e.Key, e.sealed, got, c.want)
			}
		}
	}
}

// TestMemoryConcurrentPutGetCorrupt races Puts (sealed and unsealed),
// Gets, Corrupts and Deletes on one key. Run under -race: besides data
// races it checks that a Get never serves anything but the original bytes.
func TestMemoryConcurrentPutGetCorrupt(t *testing.T) {
	m := NewMemory(1<<20, Counters{})
	want := testEntry("k", 8192, 1)
	sealed := NewEntry(want.Key, want.Meta, want.Data)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (w + i) % 5 {
				case 0:
					m.Put(sealed)
				case 1:
					m.Put(testEntry("k", 8192, 1))
				case 2:
					m.Corrupt("k", func(n int) int { return (i * 131) % n })
				case 3:
					if i%20 == 3 {
						m.Delete("k")
					}
				default:
					if got, ok := m.Get("k"); ok && !entriesEqual(got, want) {
						errs <- fmt.Errorf("worker %d step %d: Get served corrupted bytes", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CorruptEvictions == 0 {
		t.Fatalf("no corruption was ever detected: %+v", st)
	}
}
