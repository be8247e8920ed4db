package storage

import (
	"encoding/binary"
	"unsafe"
)

// The fixed-width cell kernels every copy and gather runs. An 8- or 4-byte
// cell moves as one little-endian load and one store through a pointer into
// the block's allocation; the bounds are checked once per call (and a
// source row once per row, against the source's capacity), not per cell.
// Cells may be unaligned: a row-store row, or a column region after a char
// column, can start at any byte. ld64/ld32/st64/st32 read and write a cell
// through a fixed-size array, which needs no bounds check and which the
// compiler turns into one word load or store on little-endian hosts that
// allow unaligned access.

// nativeLE reports whether the host's byte order is the block format's, so
// that a column of 8-byte cells is already a slice of words.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func ld64(p unsafe.Pointer) uint64    { return binary.LittleEndian.Uint64((*[8]byte)(p)[:]) }
func ld32(p unsafe.Pointer) uint32    { return binary.LittleEndian.Uint32((*[4]byte)(p)[:]) }
func st64(p unsafe.Pointer, v uint64) { binary.LittleEndian.PutUint64((*[8]byte)(p)[:], v) }
func st32(p unsafe.Pointer, v uint32) { binary.LittleEndian.PutUint32((*[4]byte)(p)[:], v) }

// copyCells writes the w-byte cells of the given source rows to consecutive
// destination cells: source row r's cell starts at s + r*sStride in src, and
// must lie below row lim; destination cell i starts at d + i*dStride in dst.
func copyCells(w int, dst []byte, d, dStride int, src []byte, s, sStride, lim int, rows []int32) {
	if len(rows) == 0 {
		return
	}
	_ = dst[d+(len(rows)-1)*dStride+w-1]
	_ = src[s+(lim-1)*sStride+w-1]
	dp, sp := unsafe.Pointer(&dst[d]), unsafe.Pointer(&src[s])
	switch w {
	case 8:
		for i, r := range rows {
			checkRow(r, lim)
			st64(unsafe.Add(dp, i*dStride), ld64(unsafe.Add(sp, int(r)*sStride)))
		}
	case 4:
		for i, r := range rows {
			checkRow(r, lim)
			st32(unsafe.Add(dp, i*dStride), ld32(unsafe.Add(sp, int(r)*sStride)))
		}
	default:
		for i, r := range rows {
			checkRow(r, lim)
			at := s + int(r)*sStride
			copy(dst[d+i*dStride:][:w], src[at:at+w])
		}
	}
}

// pairCells writes the w-byte cells of column sc of row rows[i] of srcs[i]
// to consecutive destination cells from d, dStride apart, and zeros where
// srcs[i] is nil: the build side of a join's output and a sort merge's
// output, whose source block may change from row to row. A source's layout resolves when the block changes.
func pairCells(w int, dst []byte, d, dStride int, srcs []*Block, sc int, rows []int32) {
	if len(rows) == 0 {
		return
	}
	_ = dst[d+(len(rows)-1)*dStride+w-1]
	dp := unsafe.Pointer(&dst[d])
	var cur *Block
	var sp unsafe.Pointer
	var sOff, sStride, lim int
	for i, r := range rows {
		src := srcs[i]
		if src == nil {
			clear(dst[d+i*dStride:][:w])
			continue
		}
		if src != cur {
			cur, lim = src, src.capacity
			sOff, sStride = src.colLayout(sc)
			_ = src.data[sOff+(lim-1)*sStride+w-1]
			sp = unsafe.Pointer(&src.data[sOff])
		}
		checkRow(r, lim)
		switch w {
		case 8:
			st64(unsafe.Add(dp, i*dStride), ld64(unsafe.Add(sp, int(r)*sStride)))
		case 4:
			st32(unsafe.Add(dp, i*dStride), ld32(unsafe.Add(sp, int(r)*sStride)))
		default:
			at := sOff + int(r)*sStride
			copy(dst[d+i*dStride:][:w], cur.data[at:at+w])
		}
	}
}

// gather64 loads the 8-byte cells of the given source rows into dst, as
// little-endian words (Int64 values, Float64 bits); nil rows means rows
// 0..len(dst)-1. Laid out as src's cells, s and sStride place row r's cell
// and lim bounds the rows.
func gather64[T ~int64 | ~float64](dst []T, src []byte, s, sStride, lim int, rows []int32) {
	if len(dst) == 0 {
		return
	}
	_ = src[s+(lim-1)*sStride+7]
	sp := unsafe.Pointer(&src[s])
	if rows == nil {
		if len(dst) > lim {
			panic("storage: gather past the block's capacity")
		}
		if sStride == 8 && nativeLE {
			copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), src[s:s+8*len(dst)])
			return
		}
		for i := range dst {
			*(*uint64)(unsafe.Pointer(&dst[i])) = ld64(unsafe.Add(sp, i*sStride))
		}
		return
	}
	for i, r := range rows[:len(dst)] {
		checkRow(r, lim)
		*(*uint64)(unsafe.Pointer(&dst[i])) = ld64(unsafe.Add(sp, int(r)*sStride))
	}
}

// gatherDate widens the 4-byte cells of the given source rows into dst as
// int64 day counts; rows and the layout are as for gather64.
func gatherDate(dst []int64, src []byte, s, sStride, lim int, rows []int32) {
	if len(dst) == 0 {
		return
	}
	_ = src[s+(lim-1)*sStride+3]
	sp := unsafe.Pointer(&src[s])
	if rows == nil {
		if len(dst) > lim {
			panic("storage: gather past the block's capacity")
		}
		for i := range dst {
			dst[i] = int64(int32(ld32(unsafe.Add(sp, i*sStride))))
		}
		return
	}
	for i, r := range rows[:len(dst)] {
		checkRow(r, lim)
		dst[i] = int64(int32(ld32(unsafe.Add(sp, int(r)*sStride))))
	}
}

// checkRow panics, as an index past a slice would, when row r is not below
// lim.
func checkRow(r int32, lim int) {
	if uint(r) >= uint(lim) {
		panic("storage: row index out of range")
	}
}
