package store

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
)

// BenchmarkMemoryHitParallel measures concurrent verified-hit throughput
// on the memory tier: every hit re-hashes its entry, outside the mutex, so
// run with -cpu 1,2 to see hits scale with parallelism.
func BenchmarkMemoryHitParallel(b *testing.B) {
	const (
		nKeys   = 16
		payload = 256 << 10 // 256 KiB, a mid-sized rewritten image
	)
	m := NewMemory(1<<30, Counters{})
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("m=chbp;img=%04d", i)
		m.Put(testEntry(keys[i], payload, int64(i)))
	}
	var next atomic.Uint64
	b.SetBytes(payload)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := keys[next.Add(1)%nKeys]
			if _, ok := m.Get(k); !ok {
				b.Fatal("benchmark key missing")
			}
		}
	})
}

// BenchmarkMemoryPutParallel measures concurrent cold Puts of fresh
// 256 KiB entries, each built by NewEntry (which hashes it) the way the
// service stores a completed rewrite. The hash runs before the store's
// mutex, so run with -cpu 1,2 to see Puts scale with parallelism; a Put
// that hashed under the lock would serialize them.
func BenchmarkMemoryPutParallel(b *testing.B) {
	const payload = 256 << 10
	data := make([]byte, payload)
	for i := range data {
		data[i] = byte(i * 7)
	}
	meta := []byte(`{"m":"chbp"}`)
	// A budget of 64 entries keeps the LRU evicting, so the resident set
	// (and the benchmark's memory) stays bounded however large b.N gets.
	m := NewMemory(64*payload, Counters{})
	var next atomic.Uint64
	b.SetBytes(payload)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := "m=chbp;img=" + strconv.FormatUint(next.Add(1), 10)
			m.Put(NewEntry(key, meta, data))
		}
	})
}

// BenchmarkDecodePut measures storing an entry that arrived as bytes (a
// peer PUT body or a peer fetch): DecodeEntry verifies it and seals the
// checksum, and Memory.Put reuses that sum instead of hashing again.
func BenchmarkDecodePut(b *testing.B) {
	const (
		nKeys   = 16
		payload = 256 << 10
	)
	bufs := make([][]byte, nKeys)
	for i := range bufs {
		bufs[i] = EncodeEntry(testEntry(fmt.Sprintf("m=chbp;img=%04d", i), payload, int64(i)))
	}
	// A budget of 4 entries evicts each key long before it comes round
	// again, so every Put stores a fresh entry.
	m := NewMemory(4*payload, Counters{})
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := DecodeEntry(bufs[i%nKeys])
		if err != nil {
			b.Fatal(err)
		}
		m.Put(e)
	}
}

// BenchmarkDiskStoreHit measures single-entry disk-tier hit latency: read,
// decode, verify. This is the cost of serving a warm-restart hit before the
// entry gets promoted to memory.
func BenchmarkDiskStoreHit(b *testing.B) {
	d, err := OpenDisk(b.TempDir(), 1<<30, Counters{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const payload = 256 << 10
	e := testEntry("m=chbp;img=bench", payload, 1)
	if err := d.Put(e); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get("m=chbp;img=bench"); !ok {
			b.Fatal("disk entry missing")
		}
	}
}
