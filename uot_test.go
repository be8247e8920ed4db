package uot

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/uotctl"
)

// TestFacadeEndToEnd drives the whole public API surface: DB/table creation,
// loading, plan building with expressions, execution at both UoT extremes,
// the monet baseline, and the model helpers.
func TestFacadeEndToEnd(t *testing.T) {
	db := NewDB(4<<10, ColumnStore)
	tbl := db.CreateTable("t", NewSchema(
		Column{Name: "k", Type: TInt64},
		Column{Name: "v", Type: TFloat64},
		Column{Name: "d", Type: TDate},
		Column{Name: "s", Type: TChar, Width: 8},
	))
	l := NewLoader(tbl)
	for i := 0; i < 1000; i++ {
		l.Append(Int64Val(int64(i%10)), Float64Val(float64(i)), DateVal(int32(i)), StringVal("tag"))
	}
	l.Close()

	build := func() *Builder {
		b := NewBuilder()
		s := tbl.Schema()
		sel := b.ScanSelect(SelectSpec{
			Name: "scan", Base: tbl,
			Pred: And(Ge(Col(s, "v"), Float(100)), Like(Col(s, "s"), "ta%")),
			Proj: []Expr{Col(s, "k"), Col(s, "v")}, ProjNames: []string{"k", "v"},
		})
		agg := b.Agg(sel, AggOpSpec{
			Name:         "agg",
			GroupBy:      []Expr{Col(sel.Schema, "k")},
			GroupByNames: []string{"k"},
			Aggs: []AggSpec{
				{Func: Sum, Arg: Col(sel.Schema, "v"), Name: "sv"},
				{Func: Count, Name: "n"},
			},
		})
		srt := b.Sort(agg, SortSpec{Name: "sort", Terms: []SortTerm{{Key: Col(agg.Schema, "k")}}})
		b.Collect(srt)
		return b
	}

	low, err := Execute(build(), Options{Workers: 4, UoTBlocks: 1, TempBlockBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Execute(build(), Options{Workers: 4, UoTBlocks: UoTTable, TempBlockBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := ExecuteMonetStyle(build(), 4)
	if err != nil {
		t.Fatal(err)
	}

	a, b, c := Rows(low.Table), Rows(high.Table), Rows(mon.Table)
	if len(a) != 10 || len(b) != 10 || len(c) != 10 {
		t.Fatalf("group counts: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i][0].I != b[i][0].I || a[i][2].I != b[i][2].I || a[i][2].I != c[i][2].I {
			t.Fatalf("row %d differs across engines: %v %v %v", i, a[i], b[i], c[i])
		}
		if math.Abs(a[i][1].F-c[i][1].F) > 1e-9 {
			t.Fatalf("row %d sums differ: %v vs %v", i, a[i][1].F, c[i][1].F)
		}
	}
}

func TestFacadeTPCH(t *testing.T) {
	d := LoadTPCH(0.002, 32<<10, ColumnStore)
	if got := len(TPCHQueries()); got != 22 {
		t.Fatalf("queries = %d", got)
	}
	plan, err := BuildTPCH(d, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rows := Rows(res.Table); len(rows) != 1 {
		t.Fatalf("q6 rows = %d", len(rows))
	}
	if _, err := BuildTPCHWith(d, 7, TPCHOpts{Staged: true}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeModels(t *testing.T) {
	m := NewCostModel(2<<20, 20)
	if r := m.HighRegime().Ratio(); r < 0.5 || r > 2 {
		t.Fatalf("Eq.1 ratio = %v", r)
	}
	if HashTableSize(1e6, 10, 40, 0.5) != 8e6 {
		t.Fatal("hash table model wrong through facade")
	}
	if DenseIndexSize(10, 100, 4, 4) != 440 {
		t.Fatal("dense index model wrong through facade")
	}
	if LowUoTOverhead([]int64{1, 2, 3}) != 5 || HighUoTOverhead(7) != 7 {
		t.Fatal("Table II helpers wrong through facade")
	}
	sim := NewCacheSim()
	if sim.ScannedBase(1<<20) <= 0 {
		t.Fatal("cache sim unusable through facade")
	}
}

// TestSettableSurfaceIsPinned counts the exported fields of the five option
// structs. Each independently settable value multiplies the configurations
// the goldens, the metamorphic harness and the benchmark have to cover, so
// adding one is a deliberate edit of these numbers, in a change that names
// its non-test caller.
func TestSettableSurfaceIsPinned(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want int
	}{
		{Options{}, 14},
		{SessionConfig{}, 12},
		{Request{}, 7},
		{uotctl.Config{}, 3},
		{ReuseConfig{}, 1},
	} {
		typ, n := reflect.TypeOf(tc.v), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		if n != tc.want {
			t.Errorf("%v has %d exported fields, want %d", typ, n, tc.want)
		}
	}
}
