package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/types"
)

func codecTestSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Type: types.Int64},
		Column{Name: "price", Type: types.Float64},
		Column{Name: "ship", Type: types.Date},
		Column{Name: "flag", Type: types.Char, Width: 12},
	)
}

// fillTestBlock appends n deterministic rows covering every column type.
func fillTestBlock(b *Block, n int) {
	for i := 0; b.NumRows() < n; i++ {
		tag := fmt.Sprintf("tag-%03d", i)
		ok := b.AppendRow(
			types.NewInt64(int64(i)*1_000_003-7),
			types.NewFloat64(float64(i)*0.3718+1e-9),
			types.NewDate(int32(8035+i)),
			types.NewChar([]byte(tag)),
		)
		if !ok {
			break
		}
	}
}

// sameRows asserts a and b expose identical live tuples through every reader.
func sameRows(t *testing.T, a, b *Block) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.Capacity() != b.Capacity() || a.Format() != b.Format() {
		t.Fatalf("shape mismatch: rows %d/%d cap %d/%d fmt %v/%v",
			a.NumRows(), b.NumRows(), a.Capacity(), b.Capacity(), a.Format(), b.Format())
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.Schema().NumCols(); c++ {
			if !bytes.Equal(a.cell(c, r), b.cell(c, r)) {
				t.Fatalf("cell (%d,%d) differs: %x vs %x", c, r, a.cell(c, r), b.cell(c, r))
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, format := range []Format{RowStore, ColumnStore} {
		for _, rows := range []int{0, 1, 17} {
			t.Run(fmt.Sprintf("%v/%drows", format, rows), func(t *testing.T) {
				b := NewBlock(codecTestSchema(), format, 1<<10)
				fillTestBlock(b, rows)
				enc := EncodeBlock(b, nil)
				if len(enc) != EncodedLen(b) {
					t.Fatalf("EncodedLen %d != encoded %d", EncodedLen(b), len(enc))
				}
				got, err := DecodeBlock(enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				sameRows(t, b, got)
				if got.Schema().String() != b.Schema().String() {
					t.Fatalf("schema %s != %s", got.Schema(), b.Schema())
				}
				// Re-encoding the decoded block must be byte-identical: the
				// format is canonical.
				if !bytes.Equal(EncodeBlock(got, nil), enc) {
					t.Fatal("re-encoding is not canonical")
				}
			})
		}
	}
}

func TestCodecZeroColumnSchema(t *testing.T) {
	for _, format := range []Format{RowStore, ColumnStore} {
		b := NewBlock(NewSchema(), format, 64)
		b.AppendRow()
		b.AppendRow()
		enc := EncodeBlock(b, nil)
		got, err := DecodeBlock(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", format, err)
		}
		if got.NumRows() != 2 || got.Schema().NumCols() != 0 {
			t.Fatalf("%v: got %d rows, %d cols", format, got.NumRows(), got.Schema().NumCols())
		}
	}
}

func TestCodecDecodeIntoKeepsSchemaPointer(t *testing.T) {
	schema := codecTestSchema()
	b := NewBlock(schema, ColumnStore, 1<<10)
	fillTestBlock(b, 9)
	want := NewBlock(schema, ColumnStore, 1<<10)
	fillTestBlock(want, 9)

	enc := EncodeBlock(b, nil)
	b.dropData()
	if err := decodeInto(b, enc, nil); err != nil {
		t.Fatalf("decodeInto: %v", err)
	}
	if b.Schema() != schema {
		t.Fatal("decodeInto replaced the schema pointer")
	}
	sameRows(t, want, b)
}

func TestCodecDecodeIntoShapeMismatch(t *testing.T) {
	b := NewBlock(codecTestSchema(), RowStore, 1<<10)
	fillTestBlock(b, 3)
	enc := EncodeBlock(b, nil)
	other := NewBlock(codecTestSchema(), ColumnStore, 1<<10)
	if err := decodeInto(other, enc, nil); !errors.Is(err, ErrCodecHeader) {
		t.Fatalf("format mismatch: got %v, want ErrCodecHeader", err)
	}
	small := NewBlock(codecTestSchema(), RowStore, 128)
	if err := decodeInto(small, enc, nil); !errors.Is(err, ErrCodecHeader) {
		t.Fatalf("capacity mismatch: got %v, want ErrCodecHeader", err)
	}
}

func TestCodecTypedErrors(t *testing.T) {
	b := NewBlock(codecTestSchema(), ColumnStore, 1<<10)
	fillTestBlock(b, 5)
	good := EncodeBlock(b, nil)

	mutate := func(f func(d []byte)) []byte {
		d := append([]byte(nil), good...)
		f(d)
		return d
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCodecTruncated},
		{"short header", good[:codecHeaderLen-1], ErrCodecTruncated},
		// Dropping payload bytes breaks the checksum before the length
		// check can notice — either way a typed error, never a panic.
		{"truncated payload", good[:len(good)-1], ErrCodecChecksum},
		{"bad magic", mutate(func(d []byte) { d[0] ^= 0xFF }), ErrCodecMagic},
		{"bad version", mutate(func(d []byte) { d[4] = 99 }), ErrCodecVersion},
		{"bad format", mutate(func(d []byte) { d[6] = 7 }), ErrCodecHeader},
		{"reserved byte", mutate(func(d []byte) { d[7] = 1 }), ErrCodecHeader},
		{"flipped payload bit", mutate(func(d []byte) { d[len(d)-1] ^= 0x01 }), ErrCodecChecksum},
		{"flipped crc", mutate(func(d []byte) { d[9] ^= 0x01 }), ErrCodecChecksum},
	}
	for _, tc := range cases {
		if _, err := DecodeBlock(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Header-field corruption lands after the CRC, so the checksum catches
	// it first; forging the CRC must still fail the structural checks.
	forge := func(f func(d []byte)) []byte {
		d := append([]byte(nil), good...)
		f(d)
		crc := crc32.Checksum(d[codecCRCStart:], codecCRCTable)
		binary.LittleEndian.PutUint32(d[8:], crc)
		return d
	}
	forged := []struct {
		name string
		data []byte
		want error
	}{
		{"rows > capacity", forge(func(d []byte) { binary.LittleEndian.PutUint32(d[16:], 1<<30) }), ErrCodecHeader},
		{"huge ncols", forge(func(d []byte) { binary.LittleEndian.PutUint32(d[12:], 1<<20) }), ErrCodecHeader},
		{"zero capacity", forge(func(d []byte) { binary.LittleEndian.PutUint32(d[20:], 0) }), ErrCodecHeader},
		{"payload len lie", forge(func(d []byte) { binary.LittleEndian.PutUint32(d[24:], 1) }), ErrCodecHeader},
		{"bad col type", forge(func(d []byte) { d[codecHeaderLen] = 200 }), ErrCodecHeader},
		{"bad col width", forge(func(d []byte) { binary.LittleEndian.PutUint32(d[codecHeaderLen+1:], 3) }), ErrCodecHeader},
	}
	for _, tc := range forged {
		if _, err := DecodeBlock(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzBlockCodec asserts the decoder never panics on arbitrary bytes, and
// that any input it accepts round-trips canonically: decode → encode
// reproduces the input bit-for-bit, and a second decode agrees cell-for-cell.
func FuzzBlockCodec(f *testing.F) {
	for _, format := range []Format{RowStore, ColumnStore} {
		b := NewBlock(codecTestSchema(), format, 1<<9)
		fillTestBlock(b, 6)
		f.Add(EncodeBlock(b, nil))
		empty := NewBlock(NewSchema(Column{Name: "k", Type: types.Int64}), format, 64)
		f.Add(EncodeBlock(empty, nil))
	}
	zc := NewBlock(NewSchema(), RowStore, 16)
	zc.AppendRow()
	f.Add(EncodeBlock(zc, nil))
	f.Add([]byte{})
	f.Add([]byte("UOTBgarbage-that-is-not-a-block"))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			if b != nil {
				t.Fatal("decode returned a block alongside an error")
			}
			return
		}
		enc := EncodeBlock(b, nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input is not canonical: %d in, %d out", len(data), len(enc))
		}
		again, err := DecodeBlock(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		sameRows(t, b, again)
	})
}
