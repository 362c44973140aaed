// Package chbp implements CHBP, the Correct and High-performance Binary
// Patching method at the core of Chimera (§4). It rewrites an image for a
// target core's ISA by translating source instructions (downgrade/upgrade)
// and patching SMILE trampolines over them, building the fault-handling
// table the runtime uses to recover the deterministic faults that erroneous
// executions trigger.
package chbp

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/eurosys26p57/chimera/internal/obj"
)

// Tables is the runtime metadata of a rewritten binary (§4.3). The kernel
// consults it to recover deterministic faults and to route trap-based
// trampolines. It is embedded in the rewritten image as a section so the
// binary stays self-contained.
type Tables struct {
	// GP is the ABI global-pointer value of the binary; the fault handler
	// restores it after a partially-executed SMILE trampoline clobbered it.
	GP uint64
	// Redirect maps an overwritten original-instruction address (the paper's
	// P1/P2/P3) to the address of its relocated copy in the target section.
	Redirect map[uint64]uint64
	// Trap maps the address of a trap-based trampoline (ebreak) to its
	// target-block entry.
	Trap map[uint64]uint64
	// ExitTrap maps the address of a trap-based *exit* (ebreak at the end of
	// a target block whose exit register could not be found) to the original
	// resume address.
	ExitTrap map[uint64]uint64
	// Spaces maps each SMILE trampoline's start address to the end of its
	// overwritten space (Fig. 4).
	Spaces map[uint64]uint64
	// TargetStart/TargetEnd bound the target-instruction section; the
	// scheduler delays migration while the pc is inside it (§4.3).
	TargetStart, TargetEnd uint64
	// ExitOf maps a target-block entry to the original resume address of its
	// normal exit — the probe point used to delay migrations (§4.3).
	ExitOf map[uint64]uint64
	// Resolved maps the trap address of a pre-materialized site — one whose
	// region was recovered statically by the resolver (Options.Resolve) —
	// to the number of runtime-rewrite faults its pre-built row avoids.
	// The kernel credits the count the first time the site is entered.
	Resolved map[uint64]uint64
}

// NewTables returns an empty table set.
func NewTables(gp uint64) *Tables {
	return &Tables{
		GP:       gp,
		Redirect: make(map[uint64]uint64),
		Trap:     make(map[uint64]uint64),
		ExitTrap: make(map[uint64]uint64),
		ExitOf:   make(map[uint64]uint64),
		Spaces:   make(map[uint64]uint64),
		Resolved: make(map[uint64]uint64),
	}
}

// InTargetSection reports whether addr lies in generated target code.
func (t *Tables) InTargetSection(addr uint64) bool {
	return addr >= t.TargetStart && addr < t.TargetEnd
}

// tableMaps lists the maps in their serialized order.
func (t *Tables) tableMaps() []*map[uint64]uint64 {
	return []*map[uint64]uint64{&t.Redirect, &t.Trap, &t.ExitTrap, &t.ExitOf, &t.Spaces, &t.Resolved}
}

// Marshal serializes the tables for embedding in SecFaultTab: GP,
// TargetStart and TargetEnd, then each map as a count and its key/value
// pairs in ascending key order, every word little-endian. Sorted keys keep
// the bytes deterministic — Go map iteration order is randomized, and the
// output is embedded in the image, whose bytes are a content address for
// the rewrite cache.
func (t *Tables) Marshal() []byte {
	maps := t.tableMaps()
	words, longest := 3, 0
	for _, m := range maps {
		words += 1 + 2*len(*m)
		longest = max(longest, len(*m))
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, 8*words)
	buf = le.AppendUint64(buf, t.GP)
	buf = le.AppendUint64(buf, t.TargetStart)
	buf = le.AppendUint64(buf, t.TargetEnd)
	keys := make([]uint64, 0, longest)
	for _, m := range maps {
		keys = keys[:0]
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		buf = le.AppendUint64(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = le.AppendUint64(buf, k)
			buf = le.AppendUint64(buf, (*m)[k])
		}
	}
	return buf
}

// maxTableEntries bounds one map's declared entry count.
const maxTableEntries = 1 << 28

// UnmarshalTables parses a SecFaultTab payload. The payload comes from the
// image, which on /run is untrusted: a truncated payload is an error, and
// a declared count never sizes an allocation past the bytes that remain.
func UnmarshalTables(data []byte) (*Tables, error) {
	var err error
	word := func() uint64 {
		if err != nil {
			return 0
		}
		if len(data) < 8 {
			err = fmt.Errorf("chbp: truncated tables: %d trailing bytes", len(data))
			return 0
		}
		w := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return w
	}
	t := &Tables{}
	t.GP, t.TargetStart, t.TargetEnd = word(), word(), word()
	for _, m := range t.tableMaps() {
		n := word()
		if err != nil {
			return nil, err
		}
		if n > maxTableEntries {
			return nil, fmt.Errorf("chbp: unreasonable table size %d", n)
		}
		if n > uint64(len(data)/16) {
			return nil, fmt.Errorf("chbp: truncated tables: %d entries declared, %d bytes left", n, len(data))
		}
		*m = make(map[uint64]uint64, n)
		for i := uint64(0); i < n; i++ {
			k := word()
			(*m)[k] = word()
		}
	}
	return t, nil
}

// TablesOf extracts the tables embedded in a rewritten image, or nil if the
// image has none (it was not rewritten).
func TablesOf(img *obj.Image) (*Tables, error) {
	sec := img.Section(obj.SecFaultTab)
	if sec == nil {
		return nil, nil
	}
	return UnmarshalTables(sec.Data)
}
