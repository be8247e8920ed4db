// Golden-result harness: checked-in SHA-256 checksums of every TPC-H query
// result at SF 0.05, verified across UoT ∈ {1, 4, 64} × {column, row}
// temporary store. Executions run at Workers=1, where the scheduler is fully
// deterministic, so each (query, uot, format) cell is bit-stable; floats are
// encoded with the exact 'x' format so any reassociation or kernel change
// that perturbs a result by even one ULP flips the checksum. Across cells
// float totals may legitimately differ by reassociation (different UoTs
// deliver blocks to aggregations in different groupings), so cross-cell
// agreement is checked with the same relative tolerance the chaos harness
// uses.
//
// Regenerate the golden file after an intentional result change with:
//
//	go test ./internal/engine -run TestGoldenTPCH -update-golden
//
// This lives in package engine_test because it drives the engine through
// internal/tpch, which itself imports internal/engine.
package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sf005.json from the current results")

const (
	goldenSF   = 0.05
	goldenPath = "testdata/golden_sf005.json"
)

var goldenUoTs = []int{1, 4, 64}

var goldenFormats = []struct {
	name   string
	format storage.Format
}{
	{"column", storage.ColumnStore},
	{"row", storage.RowStore},
}

// encodeRows canonicalizes a result table: each datum is rendered exactly
// (floats in the hex 'x' format preserve all 64 bits), rows are joined and
// sorted so checksums do not depend on result row order.
func encodeRows(rows [][]types.Datum) []string {
	out := make([]string, len(rows))
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
			default: // Int64, Date
				sb.WriteString(strconv.FormatInt(d.I, 10))
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func checksum(rows [][]types.Datum) string {
	h := sha256.New()
	for _, line := range encodeRows(rows) {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// approxEqualRows compares two canonicalized results with the chaos
// harness's relative tolerance on float fields and exact equality elsewhere.
func approxEqualRows(a, b [][]types.Datum) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a), len(b))
	}
	ea, eb := encodeRows(a), encodeRows(b)
	for i := range ea {
		if ea[i] == eb[i] {
			continue
		}
		fa, fb := strings.Split(ea[i], "|"), strings.Split(eb[i], "|")
		if len(fa) != len(fb) {
			return fmt.Errorf("row %d arity differs", i)
		}
		for j := range fa {
			if fa[j] == fb[j] {
				continue
			}
			va, erra := strconv.ParseFloat(fa[j], 64)
			vb, errb := strconv.ParseFloat(fb[j], 64)
			if erra != nil || errb != nil {
				return fmt.Errorf("row %d field %d differs exactly: %q vs %q", i, j, fa[j], fb[j])
			}
			diff := math.Abs(va - vb)
			scale := math.Max(1, math.Max(math.Abs(va), math.Abs(vb)))
			if diff/scale > 1e-6 {
				return fmt.Errorf("row %d field %d differs beyond tolerance: %v vs %v", i, j, va, vb)
			}
		}
	}
	return nil
}

func goldenKey(q, uot int, format string) string {
	return fmt.Sprintf("Q%02d/uot=%d/%s", q, uot, format)
}

type goldenCell struct {
	Rows     int    `json:"rows"`
	Checksum string `json:"sha256"`
}

func loadGolden(t *testing.T) map[string]goldenCell {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
	}
	var m map[string]goldenCell
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	return m
}

// TestGoldenTPCH is the full golden matrix: all TPC-H queries × UoT ∈
// {1,4,64} × {column,row} temporary store, one table-driven test. In -short
// mode it drops to SF 0.01 and skips the checksum comparison (the golden
// file is SF 0.05), still verifying cross-configuration agreement.
func TestGoldenTPCH(t *testing.T) {
	sf := goldenSF
	if testing.Short() {
		sf = 0.01
	}
	var golden map[string]goldenCell
	if !testing.Short() && !*updateGolden {
		golden = loadGolden(t)
	}
	updated := map[string]goldenCell{}

	d := tpch.Load(sf, 128<<10, storage.ColumnStore)
	for _, fmtCase := range goldenFormats {
		for _, q := range tpch.Numbers() {
			// The uot=1 run is the reference result for cross-UoT agreement.
			var ref [][]types.Datum
			for _, uot := range goldenUoTs {
				name := goldenKey(q, uot, fmtCase.name)
				b, err := tpch.Build(d, q, tpch.QueryOpts{})
				if err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				res, err := engine.Execute(b, engine.Options{
					Workers: 1, UoTBlocks: uot,
					TempBlockBytes: 128 << 10, TempFormat: fmtCase.format,
				})
				if err != nil {
					t.Fatalf("%s: execute: %v", name, err)
				}
				rows := engine.Rows(res.Table)
				if ref == nil {
					ref = rows
				} else if err := approxEqualRows(ref, rows); err != nil {
					t.Errorf("%s: disagrees with uot=%d result: %v", name, goldenUoTs[0], err)
				}
				cell := goldenCell{Rows: len(rows), Checksum: checksum(rows)}
				updated[name] = cell
				if golden != nil {
					want, ok := golden[name]
					if !ok {
						t.Errorf("%s: no golden entry (regenerate with -update-golden)", name)
					} else if cell != want {
						t.Errorf("%s: result drifted: got %d rows %s, want %d rows %s",
							name, cell.Rows, cell.Checksum[:12], want.Rows, want.Checksum[:12])
					}
				}
			}
		}
	}

	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update-golden must run without -short (golden file is SF 0.05)")
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(updated, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(updated))
	}
}

// TestGoldenChecksumDeterminism pins the harness itself: the same execution
// repeated must hash identically (Workers=1 is the determinism anchor the
// golden file relies on).
func TestGoldenChecksumDeterminism(t *testing.T) {
	d := tpch.Load(0.01, 128<<10, storage.ColumnStore)
	var sums []string
	for i := 0; i < 2; i++ {
		b, err := tpch.Build(d, 1, tpch.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Execute(b, engine.Options{Workers: 1, UoTBlocks: 4, TempBlockBytes: 128 << 10})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, checksum(engine.Rows(res.Table)))
	}
	if sums[0] != sums[1] {
		t.Fatalf("repeated Workers=1 executions hash differently: %s vs %s", sums[0], sums[1])
	}
}
