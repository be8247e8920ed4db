package storage

import (
	"encoding/binary"
	"unsafe"
)

// The fixed-width cell kernels every copy and gather runs. An 8- or 4-byte
// cell moves as one little-endian load and one store through a pointer into
// the block's allocation, a char cell of up to 16 bytes as two overlapping
// ones (moveCell); the bounds are checked once per call (and a source row
// once per row, against the source's capacity), not per cell.
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

// word is a cell piece moveCell loads and stores whole.
type word interface {
	[1]byte | [2]byte | [4]byte | [8]byte
}

// moveCell copies the w-byte cell at sp to dp. A cell of up to 16 bytes
// moves as two loads of the widest word that fits it, one from each end,
// then two stores; they overlap inside the cell unless w is twice the word.
// A wider cell moves with copy.
func moveCell(w int, dp, sp unsafe.Pointer) {
	switch {
	case w > 16:
		copy(unsafe.Slice((*byte)(dp), w), unsafe.Slice((*byte)(sp), w))
	case w >= 8:
		move2[[8]byte](w, dp, sp)
	case w >= 4:
		move2[[4]byte](w, dp, sp)
	case w >= 2:
		move2[[2]byte](w, dp, sp)
	default:
		move2[[1]byte](w, dp, sp)
	}
}

// move2 copies the w-byte cell at sp to dp as two words W, one from each
// end of the cell; w is at least one W and at most two.
func move2[W word](w int, dp, sp unsafe.Pointer) {
	k := int(unsafe.Sizeof(*new(W)))
	a, b := *(*W)(sp), *(*W)(unsafe.Add(sp, w-k))
	*(*W)(dp), *(*W)(unsafe.Add(dp, w-k)) = a, b
}

// moveCells is copyCells' loop for cells that move as two words W.
func moveCells[W word](w int, dp unsafe.Pointer, dStride int, sp unsafe.Pointer, sStride, lim int, rows []int32) {
	for i, r := range rows {
		checkRow(r, lim)
		move2[W](w, unsafe.Add(dp, i*dStride), unsafe.Add(sp, int(r)*sStride))
	}
}

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
	switch {
	case w == 8:
		for i, r := range rows {
			checkRow(r, lim)
			st64(unsafe.Add(dp, i*dStride), ld64(unsafe.Add(sp, int(r)*sStride)))
		}
	case w == 4:
		for i, r := range rows {
			checkRow(r, lim)
			st32(unsafe.Add(dp, i*dStride), ld32(unsafe.Add(sp, int(r)*sStride)))
		}
	case w > 16:
		for i, r := range rows {
			checkRow(r, lim)
			moveCell(w, unsafe.Add(dp, i*dStride), unsafe.Add(sp, int(r)*sStride))
		}
	case w > 8:
		moveCells[[8]byte](w, dp, dStride, sp, sStride, lim, rows)
	case w > 4:
		moveCells[[4]byte](w, dp, dStride, sp, sStride, lim, rows)
	case w > 1:
		moveCells[[2]byte](w, dp, dStride, sp, sStride, lim, rows)
	default:
		moveCells[[1]byte](w, dp, dStride, sp, sStride, lim, rows)
	}
}

// copyRun writes the n w-byte cells of a run of source rows to consecutive
// destination cells: source cell i starts at s + i*sStride in src,
// destination cell i at d + i*dStride in dst. Packed cells on both sides
// move as one copy.
func copyRun(w int, dst []byte, d, dStride int, src []byte, s, sStride, n int) {
	if n == 0 {
		return
	}
	if dStride == w && sStride == w {
		copy(dst[d:d+n*w], src[s:s+n*w])
		return
	}
	_ = dst[d+(n-1)*dStride+w-1]
	_ = src[s+(n-1)*sStride+w-1]
	dp, sp := unsafe.Pointer(&dst[d]), unsafe.Pointer(&src[s])
	for i := range n {
		moveCell(w, unsafe.Add(dp, i*dStride), unsafe.Add(sp, i*sStride))
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
			moveCell(w, unsafe.Add(dp, i*dStride), unsafe.Add(sp, int(r)*sStride))
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
