package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eurosys26p57/chimera/internal/chaos"
)

func testEntry(key string, size int, seed int64) *Entry {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	rng.Read(data)
	return &Entry{Key: key, Meta: []byte(`{"m":"chbp"}`), Data: data}
}

func entriesEqual(a, b *Entry) bool {
	return a.Key == b.Key && bytes.Equal(a.Meta, b.Meta) && bytes.Equal(a.Data, b.Data)
}

// TestEntryCodec round-trips entries through the wire format and proves
// the decoder rejects EVERY single-bit corruption and truncation.
func TestEntryCodec(t *testing.T) {
	for _, e := range []*Entry{
		testEntry("m=chbp;img=abc", 1024, 1),
		{Key: "k"},                                // nil meta, nil data
		{Key: "k2", Data: []byte{0}},              // 1-byte payload
		testEntry(strings.Repeat("K", 100), 0, 2), // meta only
	} {
		buf := EncodeEntry(e)
		got, err := DecodeEntry(buf)
		if err != nil {
			t.Fatalf("decode(%q): %v", e.Key, err)
		}
		if !entriesEqual(e, got) {
			t.Fatalf("round trip mutated entry %q", e.Key)
		}

		// Any flipped bit must be rejected.
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 50; trial++ {
			cp := append([]byte(nil), buf...)
			bit := rng.Intn(len(cp) * 8)
			cp[bit/8] ^= 1 << (bit % 8)
			if dec, err := DecodeEntry(cp); err == nil && !entriesEqual(e, dec) {
				t.Fatalf("corrupted buffer (bit %d) decoded to a DIFFERENT entry", bit)
			} else if err == nil {
				t.Fatalf("corrupted buffer (bit %d) decoded cleanly", bit)
			}
		}
		// Truncations too.
		for _, cut := range []int{0, 5, headerLen - 1, headerLen, len(buf) - 1} {
			if cut >= len(buf) {
				continue
			}
			if _, err := DecodeEntry(buf[:cut]); err == nil {
				t.Fatalf("truncated buffer (%d of %d bytes) decoded cleanly", cut, len(buf))
			}
		}
	}
}

// TestMemoryLRU checks budget enforcement, recency order, the
// bigger-than-budget exception, and stats accounting.
func TestMemoryLRU(t *testing.T) {
	m := NewMemory(3000, Counters{})
	for i := 0; i < 3; i++ {
		m.Put(testEntry(fmt.Sprintf("k%d", i), 900, int64(i)))
	}
	if m.Len() != 3 {
		t.Fatalf("len %d, want 3", m.Len())
	}
	// Touch k0 so k1 is the LRU, then push it out.
	if _, ok := m.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	m.Put(testEntry("k3", 900, 3))
	if _, ok := m.Get("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	// An entry larger than the whole budget is kept alone.
	big := testEntry("big", 10_000, 9)
	m.Put(big)
	if got, ok := m.Get("big"); !ok || !entriesEqual(got, big) {
		t.Fatal("over-budget entry was not kept")
	}
	if m.Len() != 1 {
		t.Fatalf("len %d after over-budget insert, want 1", m.Len())
	}
	st := m.Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}

// TestMemoryCorruptionEvicted: a corrupted entry fails verification on the
// next Get (hashed OUTSIDE the lock), is evicted with an identity
// re-check, and never reaches the caller — whether or not the entry was
// put with a sealed checksum, which Get must never trust.
func TestMemoryCorruptionEvicted(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		m := NewMemory(1<<20, Counters{})
		e := testEntry("k", 4096, 1)
		if sealed {
			e = NewEntry(e.Key, e.Meta, e.Data)
		}
		m.Put(e)
		pick := func(n int) int { return n / 2 }
		if !m.Corrupt("k", pick) {
			t.Fatal("corrupt found no entry")
		}
		if _, ok := m.Get("k"); ok {
			t.Fatalf("sealed=%t: corrupted entry served", sealed)
		}
		if m.Len() != 0 {
			t.Fatalf("sealed=%t: corrupted entry not evicted", sealed)
		}
		if st := m.Stats(); st.CorruptEvictions != 1 {
			t.Fatalf("sealed=%t: corrupt evictions %d, want 1", sealed, st.CorruptEvictions)
		}
		// The original slice handed to Put was never mutated (in-flight
		// responses sharing it stay valid).
		if !entriesEqual(e, testEntry("k", 4096, 1)) {
			t.Fatal("corruption mutated the shared entry bytes")
		}
	}
}

// TestDiskPersistAndRecover is the crash-recovery property test: after N
// random puts, a mix of torn files, truncations, garbage files, and temp
// leftovers, a reopened store's index contains EXACTLY the intact entries —
// every survivor hits with identical bytes, everything else misses, and
// the damaged files are gone from disk.
func TestDiskPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<30, Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 40
	entries := make(map[string]*Entry, n)
	for i := 0; i < n; i++ {
		e := testEntry(fmt.Sprintf("m=chbp;opt=%d;img=%04d", i%3, i), 512+rng.Intn(4096), int64(i))
		entries[e.Key] = e
		if err := d.Put(e); err != nil {
			t.Fatal(err)
		}
	}

	// Damage a deterministic subset "while the process is down".
	damaged := make(map[string]bool)
	i := 0
	for key := range entries {
		path := d.pathFor(key)
		switch i % 5 {
		case 0: // torn write: truncated under the final name
			b, _ := os.ReadFile(path)
			os.WriteFile(path, b[:len(b)/3], 0o644)
			damaged[key] = true
		case 1: // truncated to a sub-header stub
			os.WriteFile(path, []byte("CHST"), 0o644)
			damaged[key] = true
		}
		i++
	}
	// Foreign garbage and temp leftovers must be swept, not indexed.
	os.MkdirAll(filepath.Join(dir, "aa"), 0o755)
	os.WriteFile(filepath.Join(dir, "aa", "junk.ent"), []byte("not an entry"), 0o644)
	os.MkdirAll(filepath.Join(dir, "ab"), 0o755)
	os.WriteFile(filepath.Join(dir, "ab", tmpPrefix+"left.ent-123"), []byte("half"), 0o644)

	d2, err := OpenDisk(dir, 1<<30, Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(entries) - len(damaged)
	if d2.Len() != wantLen {
		t.Fatalf("recovered index has %d entries, want %d", d2.Len(), wantLen)
	}
	for key, e := range entries {
		got, ok := d2.Get(key)
		if damaged[key] {
			if ok {
				t.Fatalf("damaged entry %q served after recovery", key)
			}
			continue
		}
		if !ok || !entriesEqual(e, got) {
			t.Fatalf("intact entry %q lost or mutated by recovery", key)
		}
	}
	// Every swept file is actually gone.
	for key := range damaged {
		if _, err := os.Stat(d2.pathFor(key)); !os.IsNotExist(err) {
			t.Errorf("damaged file for %q still on disk", key)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ab", tmpPrefix+"left.ent-123")); !os.IsNotExist(err) {
		t.Error("temp leftover survived the recovery scan")
	}
}

// TestDiskEvictionBudget: the disk store holds its byte budget by deleting
// LRU files, and the files really leave the filesystem.
func TestDiskEvictionBudget(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 8000, Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Put(testEntry(fmt.Sprintf("k%02d", i), 1500, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if d.Bytes() > 8000 {
		t.Fatalf("budget exceeded: %d bytes resident", d.Bytes())
	}
	st := d.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite over-budget puts")
	}
	// The newest entries survive; the oldest are gone from disk too.
	if _, ok := d.Get("k09"); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := d.Get("k00"); ok {
		t.Fatal("oldest entry survived a full budget sweep")
	}
	if _, err := os.Stat(d.pathFor("k00")); !os.IsNotExist(err) {
		t.Error("evicted entry's file still on disk")
	}
}

// TestDiskCorruptReadIsMiss: a bit flipped on the stored file is caught by
// read verification, deleted, and served as a miss — never as bytes.
func TestDiskCorruptReadIsMiss(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 1<<30, Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("k", 2048, 1)
	d.Put(e)
	path := d.pathFor("k")
	b, _ := os.ReadFile(path)
	b[len(b)-7] ^= 0x10
	os.WriteFile(path, b, 0o644)
	if _, ok := d.Get("k"); ok {
		t.Fatal("corrupted file served")
	}
	if st := d.Stats(); st.CorruptEvictions != 1 {
		t.Fatalf("corrupt evictions %d, want 1", st.CorruptEvictions)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file not deleted")
	}
}

// TestDiskChaosFaults drives the three injected disk fault kinds at rate 1
// and asserts each is absorbed the way the failure model promises.
func TestDiskChaosFaults(t *testing.T) {
	mkInj := func(k chaos.Kind) *chaos.Injector {
		return chaos.New(1, chaos.Config{Rates: map[chaos.Kind]float64{k: 1}})
	}

	// ENOSPC: Put fails, nothing is indexed, the error is counted.
	d, _ := OpenDisk(t.TempDir(), 1<<30, Counters{}, mkInj(chaos.DiskENOSPC))
	if err := d.Put(testEntry("k", 256, 1)); err == nil {
		t.Fatal("injected ENOSPC did not surface")
	}
	if d.Len() != 0 || d.Stats().Errors != 1 {
		t.Fatalf("ENOSPC left state: len=%d stats=%+v", d.Len(), d.Stats())
	}

	// Torn write: the file is indexed but truncated; the read path catches
	// it and converts it to a miss plus a deletion.
	d, _ = OpenDisk(t.TempDir(), 1<<30, Counters{}, mkInj(chaos.DiskTornWrite))
	d.Put(testEntry("k", 2048, 1))
	if _, ok := d.Get("k"); ok {
		t.Fatal("torn write served")
	}
	if st := d.Stats(); st.CorruptEvictions == 0 {
		t.Fatalf("torn write not accounted as corruption: %+v", st)
	}

	// Bit flip on read: same contract.
	d, _ = OpenDisk(t.TempDir(), 1<<30, Counters{}, mkInj(chaos.DiskBitFlip))
	d.Put(testEntry("k", 2048, 1))
	if _, ok := d.Get("k"); ok {
		t.Fatal("bit-flipped read served")
	}
}

// TestTieredPromotion: a memory-evicted entry is re-served from disk and
// promoted back into memory; tier attribution tracks which tier answered.
func TestTieredPromotion(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 1<<30, Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTiered(NewMemory(1<<20, Counters{}), disk, TierCounters{})
	e := testEntry("k", 1024, 1)
	tr.Put(e)

	if _, tier, ok := tr.Get("k"); !ok || tier != TierMemory {
		t.Fatalf("fresh put served from %q, want memory", tier)
	}
	// Drop the memory copy; the next Get must fall through to disk and
	// promote.
	tr.Mem().Delete("k")
	got, tier, ok := tr.Get("k")
	if !ok || tier != TierDisk || !entriesEqual(e, got) {
		t.Fatalf("disk fallback: ok=%t tier=%q", ok, tier)
	}
	if _, tier, ok = tr.Get("k"); !ok || tier != TierMemory {
		t.Fatalf("promotion did not stick: tier %q", tier)
	}
	st := tr.TierStats()
	if st.MemHits != 2 || st.DiskHits != 1 {
		t.Fatalf("tier attribution: %+v", st)
	}
}

// TestTieredPromotedNeverDroppedByOwnEviction is the eviction/promotion
// property test: under a random workload against a memory tier so small
// every promotion forces evictions, the entry JUST promoted must always be
// resident (promotion inserts at the LRU front; eviction takes the back).
func TestTieredPromotedNeverDroppedByOwnEviction(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 1<<30, Counters{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Memory fits ~3 of the ~1KB entries, disk holds all 32.
	tr := NewTiered(NewMemory(3500, Counters{}), disk, TierCounters{})
	rng := rand.New(rand.NewSource(99))
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		if err := tr.Put(testEntry(keys[i], 1000, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 500; step++ {
		k := keys[rng.Intn(len(keys))]
		if _, _, ok := tr.Get(k); !ok {
			t.Fatalf("step %d: %s missing from both tiers", step, k)
		}
		// The hit (memory or freshly promoted from disk) must now be
		// memory-resident, whatever evictions the promotion caused.
		if _, tier, ok := tr.Get(k); !ok || tier != TierMemory {
			t.Fatalf("step %d: just-promoted %s not in memory (tier %q, ok %t)", step, k, tier, ok)
		}
	}
}

// TestTieredDiskWriteFailureIsAbsorbed: an injected full disk downgrades
// the Put to memory-only instead of failing it.
func TestTieredDiskWriteFailureIsAbsorbed(t *testing.T) {
	inj := chaos.New(1, chaos.Config{Rates: map[chaos.Kind]float64{chaos.DiskENOSPC: 1}})
	disk, err := OpenDisk(t.TempDir(), 1<<30, Counters{}, inj)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTiered(NewMemory(1<<20, Counters{}), disk, TierCounters{})
	if err := tr.Put(testEntry("k", 512, 1)); err != nil {
		t.Fatalf("tiered put surfaced a disk failure: %v", err)
	}
	if _, tier, ok := tr.Get("k"); !ok || tier != TierMemory {
		t.Fatal("entry lost after absorbed disk failure")
	}
	if st := tr.TierStats(); st.DiskErrors != 1 {
		t.Fatalf("disk error not counted: %+v", st)
	}
}
