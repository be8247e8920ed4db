package expr

import (
	"repro/internal/storage"
	"repro/internal/types"
)

// FilterRows evaluates pred over the given row IDs of b and returns the
// subset that match, refining rows in place: the row-at-a-time oracle the
// block kernels are checked against.
func FilterRows(pred Expr, b *storage.Block, rows []int32, scalars []types.Datum) []int32 {
	out := rows[:0]
	c := Ctx{B: b, Scalars: scalars}
	for _, r := range rows {
		c.Row = int(r)
		if pred.Eval(&c).I != 0 {
			out = append(out, r)
		}
	}
	return out
}
