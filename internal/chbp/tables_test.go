package chbp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func sampleTables() *Tables {
	tab := NewTables(0x12345)
	tab.Redirect[0x104] = 0x9010
	tab.Redirect[0x100] = 0x9000
	tab.Trap[0x200] = 0x9100
	tab.ExitTrap[0x9200] = 0x300
	tab.ExitOf[0x9000] = 0x108
	tab.Spaces[0x100] = 0x108
	tab.Resolved[0x200] = 3
	tab.TargetStart, tab.TargetEnd = 0x9000, 0xA000
	return tab
}

// TestTablesMarshalLayout pins the payload layout word by word: the
// header, then each map as a count and its pairs in ascending key order.
func TestTablesMarshalLayout(t *testing.T) {
	var want []byte
	for _, w := range []uint64{
		0x12345, 0x9000, 0xA000,
		2, 0x100, 0x9000, 0x104, 0x9010, // Redirect
		1, 0x200, 0x9100, // Trap
		1, 0x9200, 0x300, // ExitTrap
		1, 0x9000, 0x108, // ExitOf
		1, 0x100, 0x108, // Spaces
		1, 0x200, 3, // Resolved
	} {
		want = binary.LittleEndian.AppendUint64(want, w)
	}
	if got := sampleTables().Marshal(); !bytes.Equal(got, want) {
		t.Errorf("Marshal:\n got %x\nwant %x", got, want)
	}
}

// FuzzUnmarshalTables feeds arbitrary SecFaultTab payloads — on /run they
// arrive inside untrusted images — to the decoder: it never panics, and a
// successful decode re-marshals to bytes that decode to the same tables
// and marshal to themselves.
func FuzzUnmarshalTables(f *testing.F) {
	valid := sampleTables().Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:24])
	f.Add(NewTables(0).Marshal())
	// A count far past the bytes that follow it.
	huge := binary.LittleEndian.AppendUint64(append([]byte(nil), valid[:24]...), 1<<27)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := UnmarshalTables(data)
		if err != nil {
			return
		}
		out := tab.Marshal()
		back, err := UnmarshalTables(out)
		if err != nil {
			t.Fatalf("decoding our own marshal failed: %v", err)
		}
		if !reflect.DeepEqual(back, tab) {
			t.Fatal("tables changed across a marshal round trip")
		}
		if again := back.Marshal(); !bytes.Equal(again, out) {
			t.Fatal("Marshal is not a fixed point after one round trip")
		}
	})
}
