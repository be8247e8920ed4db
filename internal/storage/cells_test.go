package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/types"
)

// TestCharCellsMoveWhole moves char cells of every width from 1 to 40 bytes,
// between an 8-byte and a 4-byte column that put them at odd offsets in a
// row, through each cell kernel: copyCells (AppendFromMany, rows in random
// order with repeats), pairCells (the right side of AppendPairs, with nil
// rights) and copyRun (a multi-segment dense view's ViewInto and
// Materialize), from and into both formats. Every cell must equal a
// byte-by-byte copy of its source cell, and its neighbours must keep
// theirs.
func TestCharCellsMoveWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for w := 1; w <= 40; w++ {
		s := NewSchema(
			Column{Name: "k", Type: types.Int64},
			Column{Name: "c", Type: types.Char, Width: w},
			Column{Name: "d", Type: types.Date},
		)
		for _, from := range []Format{RowStore, ColumnStore} {
			var bases []*Block
			for range 3 {
				b := NewBlock(s, from, 24*s.RowWidth())
				for !b.Full() {
					c := make([]byte, w)
					for j := range c {
						c[j] = byte(1 + rng.Intn(255))
					}
					b.AppendRow(types.NewInt64(rng.Int63()), types.NewChar(c), types.NewDate(rng.Int31()))
				}
				bases = append(bases, b)
			}
			src := bases[0]
			rows := make([]int32, 40)
			for i := range rows {
				rows[i] = int32(rng.Intn(src.NumRows()))
			}
			for _, to := range []Format{RowStore, ColumnStore} {
				dst := NewBlock(s, to, 64*s.RowWidth())
				dst.AppendFromMany(src, rows, []int{0, 1, 2})
				for i, r := range rows {
					checkCells(t, w, "AppendFromMany", dst, i, src, int(r), []int{0, 1, 2})
				}
				ps := NewSchema(s.Col(2), s.Col(1), Column{Name: "k2", Type: types.Int64})
				pairs := NewBlock(ps, to, 64*ps.RowWidth())
				rights := make([]*Block, len(rows))
				for i := range rights {
					if i%5 != 0 {
						rights[i] = bases[i%3]
					}
				}
				pairs.AppendPairs(src, rows, []int{2}, rights, rows, []int{1, 0})
				for i, r := range rows {
					checkCells(t, w, "AppendPairs left", pairs, i, src, int(r), []int{2, -1, -1})
					if rights[i] == nil {
						if !bytes.Equal(pairs.BytesAt(1, i), make([]byte, w)) || pairs.Int64At(2, i) != 0 {
							t.Fatalf("width %d, AppendPairs: row %d has no right side but non-zero cells", w, i)
						}
						continue
					}
					checkCells(t, w, "AppendPairs right", pairs, i, rights[i], int(r), []int{-1, 1, 0})
				}
				var live stats.MemGauge
				p := NewPool(&live, nil)
				v := p.CheckOutView(0, s, []int{0, 1, 2}, true, to, 100*s.RowWidth())
				for _, b := range bases {
					v.AppendDense(b, 1)
				}
				var want [][]byte
				v.Sources(func(b *Block, first, n int, _ []int32) {
					for r := first; r < first+n; r++ {
						want = append(want, b.BytesAt(1, r))
					}
				})
				col := v.ViewInto(1, nil)
				p.Materialize(v, 100*s.RowWidth())
				for i, c := range want {
					if !bytes.Equal(col.Bytes(i), byteCopy(c)) || !bytes.Equal(v.BytesAt(1, i), byteCopy(c)) {
						t.Fatalf("width %d, %v into %v: dense row %d reads %x through ViewInto, %x materialized, want %x", w, from, to, i, col.Bytes(i), v.BytesAt(1, i), c)
					}
				}
				p.Release(v)
			}
		}
	}
}

// checkCells checks that column c of row i of dst holds, byte for byte,
// column proj[c] of row r of src, for each c with proj[c] >= 0.
func checkCells(t *testing.T, w int, kernel string, dst *Block, i int, src *Block, r int, proj []int) {
	t.Helper()
	for c, sc := range proj {
		if sc < 0 {
			continue
		}
		if got, want := dst.BytesAt(c, i), byteCopy(src.BytesAt(sc, r)); !bytes.Equal(got, want) {
			t.Fatalf("width %d, %s (%v from %v): row %d column %d is %x, want %x", w, kernel, dst.Format(), src.Format(), i, c, got, want)
		}
	}
}

// byteCopy copies b one byte at a time.
func byteCopy(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[i]
	}
	return out
}
