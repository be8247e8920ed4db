package main

// The correctness gate: every timed result is compared with a golden computed
// at set-up. This re-implements the serving harness's canonicalisation
// (internal/bench, not importable as a fixed reference because later PRs may
// change it): rows rendered with hex floats, sorted, SHA-256.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/types"
)

// floatTolerance is the relative error allowed on float columns when the
// bit-exact checksum differs: a run at Workers=P or another UoT adds the same
// terms in another order.
const floatTolerance = 1e-9

// golden is one query's reference result.
type golden struct {
	sum  string
	rows [][]types.Datum // canonical order, see canonRows
}

func newGolden(t *storage.Table) golden {
	return golden{sum: checksum(t), rows: canonRows(t)}
}

// checksum fingerprints a result bit-exactly.
func checksum(t *storage.Table) string {
	rows := engine.Rows(t)
	lines := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for j, d := range r {
			if j > 0 {
				sb.WriteByte('|')
			}
			switch d.Ty {
			case types.Float64:
				sb.WriteString(strconv.FormatFloat(d.F, 'x', -1, 64))
			case types.Char:
				sb.Write(d.B)
			default:
				sb.WriteString(strconv.FormatInt(d.I, 10))
			}
		}
		lines[i] = sb.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, line := range lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonRows sorts a result's rows by their non-float columns first and their
// float columns last, so two results that differ only by float rounding sort
// the same way unless rows tie on every exact column.
func canonRows(t *storage.Table) [][]types.Datum {
	rows := engine.Rows(t)
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for pass := 0; pass < 2; pass++ {
			for c := range a {
				if (a[c].Ty == types.Float64) != (pass == 1) {
					continue
				}
				if cmp := compareDatum(a[c], b[c]); cmp != 0 {
					return cmp < 0
				}
			}
		}
		return false
	})
	return rows
}

func compareDatum(a, b types.Datum) int {
	switch a.Ty {
	case types.Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case types.Char:
		return bytes.Compare(a.B, b.B)
	}
	switch {
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	}
	return 0
}

// diff compares t with the golden result and describes the first difference;
// "" means they match, bit-exactly or with float columns within
// floatTolerance.
func (g golden) diff(t *storage.Table) string {
	if checksum(t) == g.sum {
		return ""
	}
	rows := canonRows(t)
	if len(rows) != len(g.rows) {
		return fmt.Sprintf("%d rows, want %d", len(rows), len(g.rows))
	}
	for i, want := range g.rows {
		got := rows[i]
		if len(got) != len(want) {
			return fmt.Sprintf("row %d: %d columns, want %d", i, len(got), len(want))
		}
		for c := range want {
			same := got[c].Ty == want[c].Ty && compareDatum(got[c], want[c]) == 0
			if !same && got[c].Ty == types.Float64 && want[c].Ty == types.Float64 {
				scale := math.Max(math.Abs(want[c].F), math.Abs(got[c].F))
				same = math.Abs(want[c].F-got[c].F) <= floatTolerance*scale
			}
			if !same {
				return fmt.Sprintf("row %d column %d: %s, want %s", i, c, got[c], want[c])
			}
		}
	}
	return ""
}
