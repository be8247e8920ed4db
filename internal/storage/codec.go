package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/types"
)

// Block wire format (little-endian), used by the spill tier to write sealed
// temp blocks to extent files and fault them back in bit-identically:
//
//	offset  size  field
//	0       4     magic 0x55_4F_54_42 ("UOTB")
//	4       2     version (currently 1)
//	6       1     format (RowStore / ColumnStore)
//	7       1     reserved (zero)
//	8       4     CRC32-Castagnoli over everything after this field
//	12      4     ncols
//	16      4     nrows
//	20      4     capacity (rows)
//	24      4     payload length (bytes)
//	28      ...   ncols column descriptors: type u8, width u32, nameLen u16, name
//	...     ...   payload
//
// The payload holds only live rows: the n*rowWidth prefix for RowStore, or
// the n*colWidth prefix of each column region (concatenated in column order)
// for ColumnStore. Cell bytes past NumRows are scratch — Truncate leaves them
// in place and appends overwrite them — so encoding the live prefix and
// zero-filling the rest on decode reproduces every byte a reader can observe.

const (
	codecMagic     = 0x554F5442
	codecVersion   = 1
	codecHeaderLen = 28
	// codecCRCStart is where the checksummed region begins (everything after
	// the CRC field itself, so the header's row counts are covered too).
	codecCRCStart = 12

	// Sanity caps: decode works on untrusted bytes (fuzzing, torn files), so
	// bound every size field before multiplying or allocating.
	codecMaxCols     = 4096
	codecMaxColWidth = 1 << 20
	codecMaxBlock    = 1 << 26
)

// Typed codec errors. Decoding never panics: corrupted or truncated input
// maps onto one of these, which the spill read path surfaces as a fault.
var (
	ErrCodecMagic     = errors.New("storage: block codec: bad magic")
	ErrCodecVersion   = errors.New("storage: block codec: unsupported version")
	ErrCodecHeader    = errors.New("storage: block codec: malformed header")
	ErrCodecTruncated = errors.New("storage: block codec: truncated input")
	ErrCodecChecksum  = errors.New("storage: block codec: checksum mismatch")
)

var codecCRCTable = crc32.MakeTable(crc32.Castagnoli)

// payloadLen returns the encoded payload size of b: live rows only.
func (b *Block) payloadLen() int {
	if b.format == RowStore {
		return b.n * b.schema.RowWidth()
	}
	total := 0
	for i := 0; i < b.schema.NumCols(); i++ {
		total += b.n * b.schema.ColWidth(i)
	}
	return total
}

// EncodedLen returns the exact size in bytes of EncodeBlock's output for b.
func EncodedLen(b *Block) int {
	n := codecHeaderLen
	for i := 0; i < b.schema.NumCols(); i++ {
		n += 1 + 4 + 2 + len(b.schema.Col(i).Name)
	}
	return n + b.payloadLen()
}

// EncodeBlock serializes b into buf (reusing it when large enough) and
// returns the encoded bytes. The encoding is self-describing — schema,
// format, row count, capacity, checksum — so a decoder needs no side channel.
func EncodeBlock(b *Block, buf []byte) []byte {
	if b.proj != nil {
		panic("storage: encoding a view; materialize it first")
	}
	need := EncodedLen(b)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]

	binary.LittleEndian.PutUint32(buf[0:], codecMagic)
	binary.LittleEndian.PutUint16(buf[4:], codecVersion)
	buf[6] = byte(b.format)
	buf[7] = 0
	binary.LittleEndian.PutUint32(buf[12:], uint32(b.schema.NumCols()))
	binary.LittleEndian.PutUint32(buf[16:], uint32(b.n))
	binary.LittleEndian.PutUint32(buf[20:], uint32(b.capacity))
	binary.LittleEndian.PutUint32(buf[24:], uint32(b.payloadLen()))

	off := codecHeaderLen
	for i := 0; i < b.schema.NumCols(); i++ {
		c := b.schema.Col(i)
		buf[off] = byte(c.Type)
		binary.LittleEndian.PutUint32(buf[off+1:], uint32(b.schema.ColWidth(i)))
		binary.LittleEndian.PutUint16(buf[off+5:], uint16(len(c.Name)))
		copy(buf[off+7:], c.Name)
		off += 7 + len(c.Name)
	}

	if b.format == RowStore {
		off += copy(buf[off:], b.data[:b.n*b.schema.RowWidth()])
	} else {
		for i := 0; i < b.schema.NumCols(); i++ {
			w := b.schema.ColWidth(i)
			off += copy(buf[off:], b.data[b.colOff[i]:b.colOff[i]+b.n*w])
		}
	}

	crc := crc32.Checksum(buf[codecCRCStart:], codecCRCTable)
	binary.LittleEndian.PutUint32(buf[8:], crc)
	return buf
}

// codecHeader is the validated fixed header plus column descriptors.
type codecHeader struct {
	format     Format
	ncols      int
	nrows      int
	capacity   int
	payloadLen int
	cols       []Column
	payloadOff int
}

// decodeHeader validates the fixed header, checksum, and column descriptors
// of data, returning a typed error on any malformation. It performs every
// bounds check up front so the payload copy loops cannot run past the input.
func decodeHeader(data []byte) (codecHeader, error) {
	var h codecHeader
	if len(data) < codecHeaderLen {
		return h, fmt.Errorf("%w: %d bytes, need %d for header", ErrCodecTruncated, len(data), codecHeaderLen)
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != codecMagic {
		return h, fmt.Errorf("%w: 0x%08x", ErrCodecMagic, m)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != codecVersion {
		return h, fmt.Errorf("%w: %d", ErrCodecVersion, v)
	}
	if f := data[6]; f > uint8(ColumnStore) {
		return h, fmt.Errorf("%w: unknown format %d", ErrCodecHeader, f)
	}
	h.format = Format(data[6])
	if data[7] != 0 {
		return h, fmt.Errorf("%w: reserved byte set", ErrCodecHeader)
	}
	wantCRC := binary.LittleEndian.Uint32(data[8:])
	if got := crc32.Checksum(data[codecCRCStart:], codecCRCTable); got != wantCRC {
		return h, fmt.Errorf("%w: got 0x%08x want 0x%08x", ErrCodecChecksum, got, wantCRC)
	}
	h.ncols = int(binary.LittleEndian.Uint32(data[12:]))
	h.nrows = int(binary.LittleEndian.Uint32(data[16:]))
	h.capacity = int(binary.LittleEndian.Uint32(data[20:]))
	h.payloadLen = int(binary.LittleEndian.Uint32(data[24:]))
	if h.ncols > codecMaxCols {
		return h, fmt.Errorf("%w: %d columns", ErrCodecHeader, h.ncols)
	}
	if h.capacity < 1 || h.nrows < 0 || h.nrows > h.capacity {
		return h, fmt.Errorf("%w: %d rows in capacity %d", ErrCodecHeader, h.nrows, h.capacity)
	}

	off := codecHeaderLen
	h.cols = make([]Column, h.ncols)
	rowWidth := 0
	for i := 0; i < h.ncols; i++ {
		if len(data) < off+7 {
			return h, fmt.Errorf("%w: column descriptor %d", ErrCodecTruncated, i)
		}
		ty := types.TypeID(data[off])
		width := int(binary.LittleEndian.Uint32(data[off+1:]))
		nameLen := int(binary.LittleEndian.Uint16(data[off+5:]))
		if len(data) < off+7+nameLen {
			return h, fmt.Errorf("%w: column name %d", ErrCodecTruncated, i)
		}
		switch ty {
		case types.Int64, types.Float64, types.Date:
			if width != ty.Width() {
				return h, fmt.Errorf("%w: column %d: %s width %d", ErrCodecHeader, i, ty, width)
			}
		case types.Char:
			if width < 1 || width > codecMaxColWidth {
				return h, fmt.Errorf("%w: column %d: char width %d", ErrCodecHeader, i, width)
			}
		default:
			return h, fmt.Errorf("%w: column %d: unknown type %d", ErrCodecHeader, i, uint8(ty))
		}
		h.cols[i] = Column{Name: string(data[off+7 : off+7+nameLen]), Type: ty, Width: width}
		rowWidth += width
		off += 7 + nameLen
	}
	if rowWidth == 0 {
		rowWidth = 1 // zero-column schema convention (see NewSchema)
	}
	if h.capacity > codecMaxBlock/rowWidth {
		return h, fmt.Errorf("%w: capacity %d x row width %d too large", ErrCodecHeader, h.capacity, rowWidth)
	}
	wantPayload := h.nrows * rowWidth
	if h.ncols == 0 && h.format == ColumnStore {
		wantPayload = 0 // no column regions to encode
	}
	if h.payloadLen != wantPayload {
		return h, fmt.Errorf("%w: payload length %d, want %d", ErrCodecHeader, h.payloadLen, wantPayload)
	}
	if len(data) != off+h.payloadLen {
		return h, fmt.Errorf("%w: %d bytes, want %d", ErrCodecTruncated, len(data), off+h.payloadLen)
	}
	h.payloadOff = off
	return h, nil
}

// copyPayload scatters the encoded live-row payload into b.data, which must
// already be sized for b's capacity. Bytes past the live rows are scratch.
func (h codecHeader) copyPayload(b *Block, data []byte) {
	payload := data[h.payloadOff:]
	if b.format == RowStore {
		copy(b.data, payload)
		return
	}
	src := 0
	for i := 0; i < b.schema.NumCols(); i++ {
		w := b.schema.ColWidth(i) * h.nrows
		copy(b.data[b.colOff[i]:], payload[src:src+w])
		src += w
	}
}

// DecodeBlock deserializes a standalone block from data, reconstructing its
// schema from the embedded descriptors. Corrupted input returns a typed
// error; the output of EncodeBlock round-trips bit-identically over every
// byte a reader can observe.
func DecodeBlock(data []byte) (*Block, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	schema := NewSchema(h.cols...)
	b := NewBlock(schema, h.format, h.capacity*schema.RowWidth())
	b.n = h.nrows
	h.copyPayload(b, data)
	return b, nil
}

// decodeInto deserializes data into b, which must be an evicted block
// (data dropped) whose schema, format, and capacity produced the encoding,
// laying it over buf (dirty bytes are fine; nil or too small allocates).
// The block keeps its original *Schema: operators hold the block, and
// everything they resolved against its schema stays valid.
func decodeInto(b *Block, data, buf []byte) error {
	h, err := decodeHeader(data)
	if err != nil {
		return err
	}
	if h.format != b.format || h.capacity != b.capacity || h.ncols != b.schema.NumCols() {
		return fmt.Errorf("%w: shape mismatch on fault-in", ErrCodecHeader)
	}
	for i := 0; i < h.ncols; i++ {
		if h.cols[i].Type != b.schema.Col(i).Type || h.cols[i].width() != b.schema.ColWidth(i) {
			return fmt.Errorf("%w: column %d mismatch on fault-in", ErrCodecHeader, i)
		}
	}
	size := b.capacity * b.schema.RowWidth()
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	b.data = buf[:size]
	b.n = h.nrows
	h.copyPayload(b, data)
	return nil
}

// dropData frees the block's backing allocation after its contents were
// spilled. The allocation goes to the GC, not the freelist: the spill tier
// exists to give RAM back. Reads would fault until decodeInto restores it; the spill tier
// guarantees that happens before the scheduler hands the block to a consumer.
func (b *Block) dropData() { b.data = nil }
