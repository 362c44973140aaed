package service

import (
	"encoding/json"
	"fmt"

	"github.com/eurosys26p57/chimera/internal/rewriters"
	"github.com/eurosys26p57/chimera/internal/store"
)

// This file adapts the service's RewriteResult to the store package's Entry:
// the rewritten image bytes become the entry payload and the per-rewrite
// stats ride in the metadata sidecar, so a result can round-trip through any
// tier — memory, disk, or a peer — and come back as the same RewriteResult
// (minus per-request markers like CacheHit/Deduped, which describe how THIS
// request was served, not what is stored).

// CacheStats is the /stats cache block: the memory tier's counters plus the
// derived hit ratio (kept from the pre-tiered schema so dashboards survive).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// CorruptEvictions is entries that failed SHA-256 verification on a
	// hit and were evicted (served as a miss instead).
	CorruptEvictions uint64 `json:"corrupt_evictions"`
	Entries          int    `json:"entries"`
	Bytes            int64  `json:"bytes"`
	Budget           int64  `json:"budget_bytes"`
	// HitRatio is Hits / (Hits + Misses), 0 when no lookups happened.
	HitRatio float64 `json:"hit_ratio"`
}

func cacheStatsFrom(st store.Stats) CacheStats {
	s := CacheStats{
		Hits:             st.Hits,
		Misses:           st.Misses,
		Evictions:        st.Evictions,
		CorruptEvictions: st.CorruptEvictions,
		Entries:          st.Entries,
		Bytes:            st.Bytes,
		Budget:           st.Budget,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}

// entryMeta is the JSON sidecar stored alongside the image bytes.
type entryMeta struct {
	Method string          `json:"method"`
	Target string          `json:"target"`
	Stats  rewriters.Stats `json:"stats"`
}

// entryFromResult renders a completed rewrite as a sealed store entry: its
// checksum is computed here, once, on the caller's goroutine, and every
// tier and peer offer it is written to reuses it.
func entryFromResult(res *RewriteResult) (*store.Entry, error) {
	meta, err := json.Marshal(entryMeta{Method: res.Method, Target: res.Target, Stats: res.Stats})
	if err != nil {
		return nil, fmt.Errorf("service: encoding entry meta: %w", err)
	}
	return store.NewEntry(res.Key, meta, res.ImageBytes), nil
}

// resultFromEntry reconstructs the RewriteResult a stored entry encodes. The
// entry's bytes were checksum-verified by whichever tier produced it; a meta
// sidecar that still fails to parse means a version skew, which callers
// treat as a miss (delete and rewrite), never an error.
func resultFromEntry(e *store.Entry) (*RewriteResult, error) {
	var meta entryMeta
	if err := json.Unmarshal(e.Meta, &meta); err != nil {
		return nil, fmt.Errorf("service: decoding entry meta: %w", err)
	}
	return &RewriteResult{
		Key:        e.Key,
		Method:     meta.Method,
		Target:     meta.Target,
		ImageBytes: e.Data,
		Stats:      meta.Stats,
	}, nil
}
