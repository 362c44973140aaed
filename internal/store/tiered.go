package store

import (
	"sync/atomic"

	"github.com/eurosys26p57/chimera/internal/telemetry"
)

// Tier names, used in stats, metrics labels, and trace annotations.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
)

// TierCounters are the Tiered store's own telemetry instruments (per-tier
// hit attribution and write-through failures); nil-safe like Counters.
type TierCounters struct {
	MemHits    *telemetry.Counter // hits served by the memory tier
	DiskHits   *telemetry.Counter // hits served by the disk tier (promoted)
	Misses     *telemetry.Counter // lookups that missed every tier
	DiskErrors *telemetry.Counter // write-through Puts the disk tier failed
}

// Tiered is memory over disk: Get checks memory first, then disk (a disk
// hit is promoted into memory so the next lookup is fast); Put writes
// through to both tiers. Both tiers reuse the entry's sealed checksum, so
// a Put of a NewEntry result and a promoted disk hit (sealed by
// DecodeEntry) hash nothing here. The disk tier is optional — with a nil
// Disk the Tiered store is just the memory store with tier accounting, so
// the service mounts one code path either way.
//
// A failed disk write never fails the Put: the entry stays served from
// memory and the failure is counted (it is a durability loss, not a
// correctness loss — the entry is reproducible by rewriting).
type Tiered struct {
	mem  *Memory
	disk *Disk

	memHits, diskHits, misses, diskErrors atomic.Uint64

	met TierCounters
}

// NewTiered mounts mem over disk (disk may be nil).
func NewTiered(mem *Memory, disk *Disk, met TierCounters) *Tiered {
	return &Tiered{mem: mem, disk: disk, met: met}
}

// Mem exposes the memory tier (stats, chaos corruption injection).
func (t *Tiered) Mem() *Memory { return t.mem }

// Disk exposes the disk tier (nil when the store is memory-only).
func (t *Tiered) Disk() *Disk { return t.disk }

// Get returns the entry and which tier served it ("" on a miss). A disk
// hit is promoted into the memory tier before returning, so the caller's
// next identical lookup is a memory hit.
func (t *Tiered) Get(key string) (*Entry, string, bool) {
	if e, ok := t.mem.Get(key); ok {
		t.memHits.Add(1)
		t.met.MemHits.Inc()
		return e, TierMemory, true
	}
	if t.disk != nil {
		if e, ok := t.disk.Get(key); ok {
			t.mem.Put(e) // read-promote
			t.diskHits.Add(1)
			t.met.DiskHits.Inc()
			return e, TierDisk, true
		}
	}
	t.misses.Add(1)
	t.met.Misses.Inc()
	return nil, "", false
}

// GetEntry adapts Get to the Store interface shape.
func (t *Tiered) GetEntry(key string) (*Entry, bool) {
	e, _, ok := t.Get(key)
	return e, ok
}

// Put writes through to both tiers. Disk failures are absorbed (counted,
// entry stays memory-resident); only a memory failure — which Memory never
// produces — would surface.
func (t *Tiered) Put(e *Entry) error {
	if err := t.mem.Put(e); err != nil {
		return err
	}
	if t.disk != nil {
		if err := t.disk.Put(e); err != nil {
			t.diskErrors.Add(1)
			t.met.DiskErrors.Inc()
		}
	}
	return nil
}

// Delete removes key from every tier.
func (t *Tiered) Delete(key string) {
	t.mem.Delete(key)
	if t.disk != nil {
		t.disk.Delete(key)
	}
}

// Len is the disk tier's entry count when one is mounted (the superset),
// else the memory tier's.
func (t *Tiered) Len() int {
	if t.disk != nil {
		return t.disk.Len()
	}
	return t.mem.Len()
}

// Bytes mirrors Len's tier choice.
func (t *Tiered) Bytes() int64 {
	if t.disk != nil {
		return t.disk.Bytes()
	}
	return t.mem.Bytes()
}

// TieredStats is the combined snapshot: per-tier stores plus the tier-hit
// attribution the combinator itself tracks.
type TieredStats struct {
	Memory Stats  `json:"memory"`
	Disk   *Stats `json:"disk,omitempty"`
	// MemHits/DiskHits/Misses attribute every Tiered.Get: served by
	// memory, served by disk (and promoted), or missed everywhere.
	MemHits  uint64 `json:"mem_tier_hits"`
	DiskHits uint64 `json:"disk_tier_hits"`
	Misses   uint64 `json:"misses"`
	// DiskErrors is write-through Puts the disk tier failed (entry stayed
	// memory-only).
	DiskErrors uint64 `json:"disk_errors,omitempty"`
}

// TierStats snapshots the combinator and both tiers.
func (t *Tiered) TierStats() TieredStats {
	out := TieredStats{
		Memory:     t.mem.Stats(),
		MemHits:    t.memHits.Load(),
		DiskHits:   t.diskHits.Load(),
		Misses:     t.misses.Load(),
		DiskErrors: t.diskErrors.Load(),
	}
	if t.disk != nil {
		ds := t.disk.Stats()
		out.Disk = &ds
	}
	return out
}

// Stats aggregates across tiers for the Store interface: hits are
// attributed Gets that found the entry in any tier, misses are end-to-end
// misses.
func (t *Tiered) Stats() Stats {
	ms := t.mem.Stats()
	s := Stats{
		Hits:             t.memHits.Load() + t.diskHits.Load(),
		Misses:           t.misses.Load(),
		Evictions:        ms.Evictions,
		CorruptEvictions: ms.CorruptEvictions,
		Entries:          t.Len(),
		Bytes:            t.Bytes(),
		Budget:           ms.Budget,
	}
	if t.disk != nil {
		ds := t.disk.Stats()
		s.Evictions += ds.Evictions
		s.CorruptEvictions += ds.CorruptEvictions
		s.Errors += ds.Errors
		s.Budget += ds.Budget
	}
	return s
}

// storeIface asserts the Store contract at compile time (Tiered adapts Get
// via GetEntry; Memory and Disk implement it directly).
var (
	_ Store = (*Memory)(nil)
	_ Store = (*Disk)(nil)
)
