package store

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"
)

// Memory is the in-memory LRU tier: entries under a byte budget, most
// recently used at the front, every hit re-verified against its
// insertion-time checksum. It is the service's original rewrite cache
// extracted behind the Store interface, with one load-bearing change: no
// SHA-256 runs inside the mutex. Hashing a multi-megabyte image takes long
// enough that doing it under the lock serialized every concurrent caller;
// now the critical sections are just map lookups and LRU splices. Put
// takes the entry's checksum (sealed, or computed) before locking. Get
// hashes unlocked on a snapshot, and a detected mismatch re-acquires the
// lock and evicts only if the entry is still the same one that was hashed
// (identity re-check, so a concurrent replacement is never evicted by a
// stale verdict).
type Memory struct {
	mu      sync.Mutex
	budget  int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	bytes   int64

	hits, misses, evictions, corrupt atomic.Uint64

	met Counters
}

// memEntry is one resident entry plus its insertion-time checksum.
type memEntry struct {
	e   *Entry
	sum [sha256.Size]byte
}

// NewMemory returns an empty memory store with the given byte budget.
func NewMemory(budget int64, met Counters) *Memory {
	return &Memory{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		met:     met,
	}
}

// Get returns the entry for key, promoting it to most recently used. A hit
// whose bytes no longer match the insertion-time checksum is evicted and
// reported as a miss: a corrupted entry must trigger a fresh rewrite (or a
// lower tier), never reach a client.
func (m *Memory) Get(key string) (*Entry, bool) {
	m.mu.Lock()
	el, ok := m.entries[key]
	if !ok {
		m.mu.Unlock()
		m.misses.Add(1)
		m.met.Misses.Inc()
		return nil, false
	}
	me := el.Value.(*memEntry)
	m.ll.MoveToFront(el)
	m.mu.Unlock()

	// Verify outside the critical section: concurrent hits hash in
	// parallel. me is an immutable snapshot — corruption injection and
	// replacement swap the *memEntry's fields under the lock only via new
	// slices, never by mutating bytes a reader may be hashing.
	if !m.verify(me) {
		// Re-check identity before evicting: only evict if the map still
		// holds the exact element/value pair that failed verification.
		m.mu.Lock()
		if cur, ok := m.entries[key]; ok && cur == el && cur.Value.(*memEntry) == me {
			m.removeElementLocked(el)
		}
		m.mu.Unlock()
		m.noteCorrupt()
		return nil, false
	}
	m.noteHit()
	return me.e, true
}

// verify recomputes the snapshot's checksum from its bytes (never from a
// sealed sum) and compares it with the insertion-time one, timing it into
// the Verify histogram when one is wired.
func (m *Memory) verify(me *memEntry) bool {
	start := time.Now()
	ok := me.e.Sum() == me.sum
	m.met.Verify.Observe(time.Since(start).Seconds())
	return ok
}

func (m *Memory) noteHit() {
	m.hits.Add(1)
	m.met.Hits.Inc()
}

func (m *Memory) noteCorrupt() {
	m.corrupt.Add(1)
	m.met.Corrupt.Inc()
	m.misses.Add(1)
	m.met.Misses.Inc()
}

// Put inserts an entry, evicting least-recently-used entries until the
// byte budget holds. An entry larger than the whole budget is still kept
// (alone) — dropping it would make identical requests miss forever.
// Re-putting an existing key keeps the first copy and refreshes recency.
// The checksum (sealed, or computed) is taken before the lock, so
// concurrent Puts of fresh multi-megabyte entries never queue behind each
// other's SHA-256.
func (m *Memory) Put(e *Entry) error {
	me := &memEntry{e: e, sum: e.checksum()}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[e.Key]; ok {
		m.ll.MoveToFront(el)
		return nil
	}
	m.entries[e.Key] = m.ll.PushFront(me)
	m.bytes += e.size()
	for m.bytes > m.budget && m.ll.Len() > 1 {
		m.evictOldestLocked()
	}
	return nil
}

// Delete removes key if present.
func (m *Memory) Delete(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.removeElementLocked(el)
	}
}

// Corrupt flips one bit of the entry's data in a private copy (chaos
// injection). The previously shared bytes are left untouched so responses
// already in flight stay valid; only future lookups observe the corruption
// — and Get's checksum verification must catch it. pick chooses the bit
// index in [0, n).
func (m *Memory) Corrupt(key string, pick func(n int) int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return false
	}
	me := el.Value.(*memEntry)
	if len(me.e.Data) == 0 {
		return false
	}
	cp := *me.e
	cp.Data = append([]byte(nil), me.e.Data...)
	bit := pick(len(cp.Data) * 8)
	cp.Data[bit/8] ^= 1 << (bit % 8)
	// Keep the ORIGINAL checksum, both as the insertion-time sum and as
	// the copy's sealed one: the point is a mismatch on the next Get.
	el.Value = &memEntry{e: &cp, sum: me.sum}
	return true
}

func (m *Memory) evictOldestLocked() {
	el := m.ll.Back()
	if el == nil {
		return
	}
	m.removeElementLocked(el)
	m.evictions.Add(1)
	m.met.Evictions.Inc()
}

func (m *Memory) removeElementLocked(el *list.Element) {
	me := el.Value.(*memEntry)
	m.ll.Remove(el)
	delete(m.entries, me.e.Key)
	m.bytes -= me.e.size()
}

// Len is the resident entry count.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Bytes is the resident byte footprint.
func (m *Memory) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Stats snapshots the store's counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	entries, bytes := m.ll.Len(), m.bytes
	m.mu.Unlock()
	return Stats{
		Hits:             m.hits.Load(),
		Misses:           m.misses.Load(),
		Evictions:        m.evictions.Load(),
		CorruptEvictions: m.corrupt.Load(),
		Entries:          entries,
		Bytes:            bytes,
		Budget:           m.budget,
	}
}
