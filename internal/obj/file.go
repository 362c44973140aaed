package obj

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/eurosys26p57/chimera/internal/riscv"
)

// On-disk format: a compact little-endian container so the CLI tools can
// pass images between rewriting and execution.
//
//	magic "CHIM" | u16 version | header | sections | symbols
//
// All strings are u16 length + bytes; all integers little-endian.

const (
	fileMagic   = "CHIM"
	fileVersion = 1

	// Decode limits. The wire format is the rewrite service's request body,
	// so ReadImage must fail cleanly on hostile counts instead of attempting
	// multi-gigabyte allocations.
	maxSectionSize = 1 << 30
	maxImageSize   = 1 << 30 // cumulative cap across all sections
	maxSections    = 1 << 16
	maxSymbols     = 1 << 20

	// readChunk bounds how much a single declared section size can make
	// ReadImage allocate ahead of the bytes actually arriving, so a crafted
	// header claiming a huge section on a truncated stream fails after at
	// most one chunk instead of committing the whole declared size up front.
	readChunk = 1 << 20
)

// readBlob reads exactly size bytes in bounded chunks, growing the buffer
// only as data actually arrives.
func readBlob(r io.Reader, size uint64) ([]byte, error) {
	cap0 := size
	if cap0 > readChunk {
		cap0 = readChunk
	}
	buf := make([]byte, 0, cap0)
	for uint64(len(buf)) < size {
		n := size - uint64(len(buf))
		if n > readChunk {
			n = readChunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// encode emits the image's wire form, in order, as a sequence of byte
// slices emit must not retain: header fields through a scratch buffer,
// section contents as they are. It fails before emitting anything when a
// name does not fit its u16 length prefix.
func (img *Image) encode(emit func([]byte)) error {
	if err := img.checkNames(); err != nil {
		return err
	}
	le := binary.LittleEndian
	appendString := func(b []byte, s string) []byte {
		return append(le.AppendUint16(b, uint16(len(s))), s...)
	}
	b := make([]byte, 0, 64)
	b = le.AppendUint16(append(b, fileMagic...), fileVersion)
	b = appendString(b, img.Name)
	b = le.AppendUint64(b, img.Entry)
	b = le.AppendUint64(b, img.GP)
	b = le.AppendUint32(b, uint32(img.ISA))
	b = le.AppendUint32(b, uint32(len(img.Sections)))
	for _, s := range img.Sections {
		b = appendString(b, s.Name)
		b = le.AppendUint64(b, s.Addr)
		b = append(b, uint8(s.Perm))
		b = le.AppendUint64(b, uint64(len(s.Data)))
		emit(b)
		emit(s.Data)
		b = b[:0]
	}
	b = le.AppendUint32(b, uint32(len(img.Symbols)))
	for _, sym := range img.Symbols {
		b = appendString(b, sym.Name)
		b = le.AppendUint64(b, sym.Addr)
		b = le.AppendUint64(b, sym.Size)
		b = append(b, uint8(sym.Kind))
	}
	emit(b)
	return nil
}

// checkNames fails on the first name, in wire order, that does not fit a
// u16 length prefix.
func (img *Image) checkNames() error {
	long := func(s string) error {
		if len(s) > 0xFFFF {
			return fmt.Errorf("obj: string too long (%d bytes)", len(s))
		}
		return nil
	}
	err := long(img.Name)
	for _, s := range img.Sections {
		if err == nil {
			err = long(s.Name)
		}
	}
	for _, sym := range img.Symbols {
		if err == nil {
			err = long(sym.Name)
		}
	}
	return err
}

// MarshalBinary returns the image's wire form in one buffer of exactly its
// size.
func (img *Image) MarshalBinary() ([]byte, error) {
	n := 0
	if err := img.encode(func(p []byte) { n += len(p) }); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, n)
	_ = img.encode(func(p []byte) { buf = append(buf, p...) }) // names checked by the sizing pass
	return buf, nil
}

// WriteTo serializes the image in one write.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	buf, err := img.MarshalBinary()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadImage deserializes an image written by WriteTo.
func ReadImage(r io.Reader) (*Image, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("obj: bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != fileVersion {
		return nil, fmt.Errorf("obj: unsupported version %d", version)
	}
	img := &Image{}
	var err error
	if img.Name, err = readString(r); err != nil {
		return nil, err
	}
	var isa uint32
	if err := binary.Read(r, binary.LittleEndian, &img.Entry); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &img.GP); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &isa); err != nil {
		return nil, err
	}
	img.ISA = riscv.Ext(isa)
	var nsec uint32
	if err := binary.Read(r, binary.LittleEndian, &nsec); err != nil {
		return nil, err
	}
	if nsec > maxSections {
		return nil, fmt.Errorf("obj: unreasonable section count %d", nsec)
	}
	var total uint64
	for i := uint32(0); i < nsec; i++ {
		s := &Section{}
		if s.Name, err = readString(r); err != nil {
			return nil, err
		}
		var perm uint8
		var size uint64
		if err := binary.Read(r, binary.LittleEndian, &s.Addr); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &perm); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
			return nil, err
		}
		if size > maxSectionSize {
			return nil, fmt.Errorf("obj: unreasonable section size %d", size)
		}
		if total += size; total > maxImageSize {
			return nil, fmt.Errorf("obj: sections exceed image size cap (%d bytes)", total)
		}
		s.Perm = Perm(perm)
		if s.Data, err = readBlob(r, size); err != nil {
			return nil, err
		}
		img.Sections = append(img.Sections, s)
	}
	var nsym uint32
	if err := binary.Read(r, binary.LittleEndian, &nsym); err != nil {
		return nil, err
	}
	if nsym > maxSymbols {
		return nil, fmt.Errorf("obj: unreasonable symbol count %d", nsym)
	}
	for i := uint32(0); i < nsym; i++ {
		var sym Symbol
		if sym.Name, err = readString(r); err != nil {
			return nil, err
		}
		var kind uint8
		if err := binary.Read(r, binary.LittleEndian, &sym.Addr); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &sym.Size); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
			return nil, err
		}
		sym.Kind = SymKind(kind)
		img.Symbols = append(img.Symbols, sym)
	}
	return img, nil
}
