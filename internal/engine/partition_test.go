package engine

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/types"
)

// buildPartitionedJoinAggPlan mirrors buildJoinAggPlan with the join and the
// aggregation partitioned across `parts` partition-local pipelines.
func buildPartitionedJoinAggPlan(fact, dim *storage.Table, parts int) *Builder {
	b := NewBuilder()
	fs, ds := fact.Schema(), dim.Schema()

	selDim := b.ScanSelect(exec.SelectSpec{
		Name: "sel_dim", Base: dim,
		Proj:      []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")},
		ProjNames: []string{"k", "w"},
	})
	selFact := b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Pred:      expr.Ge(expr.C(fs, "v"), expr.Float(10)),
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp"), expr.C(fs, "v")},
		ProjNames: []string{"k", "grp", "v"},
	})
	join := b.PartitionedHashJoin(selDim, selFact,
		exec.BuildSpec{Name: "build_dim", KeyCols: []int{0}, Payload: []int{1}, ExpectedRows: 50},
		exec.ProbeSpec{
			Name: "probe_dim", KeyCols: []int{0},
			ProbeProj: []int{1, 2}, BuildProj: []int{0},
			Rename: []string{"grp", "v", "w"},
		}, parts)
	agg := b.PartitionedAgg(join, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(join.Schema, "grp")},
		GroupByNames: []string{"grp"},
		Aggs: []exec.AggSpec{
			{Func: exec.Count, Name: "cnt"},
			{Func: exec.Sum, Arg: expr.C(join.Schema, "v"), Name: "sv"},
		},
	}, parts)
	srt := b.Sort(agg, exec.SortSpec{
		Name:  "sort",
		Terms: []exec.SortTerm{{Key: expr.C(agg.Schema, "grp")}},
	})
	b.Collect(srt)
	return b
}

// TestPartitionedJoinAggEquivalence: the partitioned plan must return exactly
// the unpartitioned plan's results at every fan-out, UoT, and worker count.
func TestPartitionedJoinAggEquivalence(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	for _, parts := range []int{1, 2, 8} {
		for _, uot := range []int{1, 64} {
			for _, workers := range []int{1, 8} {
				label := fmt.Sprintf("parts=%d uot=%d T=%d", parts, uot, workers)
				res, err := Execute(buildPartitionedJoinAggPlan(fact, dim, parts), Options{
					Workers: workers, UoTBlocks: uot, TempBlockBytes: 512,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkJoinAgg(t, res, label)
				if parts > 1 {
					k := res.Run.Kernels()
					if k.ShardLocks != 0 {
						t.Errorf("%s: partition-local build took %d shard locks, want 0", label, k.ShardLocks)
					}
					if k.ExchangeRows == 0 || k.RepartitionFanout == 0 {
						t.Errorf("%s: exchange counters not recorded (rows=%d fanout=%d)", label, k.ExchangeRows, k.RepartitionFanout)
					}
				}
			}
		}
	}
}

// TestPartitionedPlanFaultRetryEquivalence: Repartition faults roll scatter
// work orders back mid-run; the retried work orders must leave results
// bit-identical.
func TestPartitionedPlanFaultRetryEquivalence(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	for _, seed := range []uint64{1, 7, 23} {
		inj := faults.New(faults.Config{
			Seed:  seed,
			Rates: map[faults.Site]float64{faults.Repartition: 0.2},
			Kinds: []faults.Kind{faults.KindError},
		})
		res, err := Execute(buildPartitionedJoinAggPlan(fact, dim, 4), Options{
			Workers: 4, UoTBlocks: 1, TempBlockBytes: 512,
			Faults: inj, MaxAttempts: 10,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkJoinAgg(t, res, fmt.Sprintf("faulty seed=%d", seed))
	}
}

// TestPartitionSkewCounterReachesRunStats: a constant join key sends every
// row to one partition; the skew guard's counter must surface in the run.
func TestPartitionSkewCounterReachesRunStats(t *testing.T) {
	db := NewDB(512, storage.ColumnStore)
	tbl := db.CreateTable("skewed", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
	))
	l := storage.NewLoader(tbl)
	for i := 0; i < 500; i++ {
		l.Append(types.NewInt64(7), types.NewInt64(int64(i)))
	}
	l.Close()

	b := NewBuilder()
	ts := tbl.Schema()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "sel", Base: tbl,
		Proj:      []expr.Expr{expr.C(ts, "k"), expr.C(ts, "v")},
		ProjNames: []string{"k", "v"},
	})
	agg := b.PartitionedAgg(sel, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(sel.Schema, "k")},
		GroupByNames: []string{"k"},
		Aggs:         []exec.AggSpec{{Func: exec.Count, Name: "cnt"}},
	}, 4)
	b.Collect(agg)
	res, err := Execute(b, Options{Workers: 4, UoTBlocks: 1, TempBlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Kernels().PartitionSkew == 0 {
		t.Fatal("constant-key exchange did not record a PartitionSkew trip")
	}
	rows := Rows(res.Table)
	if len(rows) != 1 || rows[0][1].I != 500 {
		t.Fatalf("skewed aggregation result wrong: %v", rows)
	}
}

// TestPartitionedFallbacks: fan-out 1 and unpartitionable group keys must
// quietly build the ordinary shared-state plan.
func TestPartitionedFallbacks(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	res, err := Execute(buildPartitionedJoinAggPlan(fact, dim, 1), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkJoinAgg(t, res, "parts=1 fallback")
	if rows := res.Run.Kernels().ExchangeRows; rows != 0 {
		t.Fatalf("fan-out 1 still built an exchange (%d rows)", rows)
	}
}

// TestSetPartitionsDefault: helpers called with parts == 0 use the builder
// default set by SetPartitions.
func TestSetPartitionsDefault(t *testing.T) {
	_, fact, dim := fixture(t, storage.ColumnStore, 512)
	b := NewBuilder()
	b.SetPartitions(4)
	fs := fact.Schema()
	sel := b.ScanSelect(exec.SelectSpec{
		Name: "sel_fact", Base: fact,
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "grp"), expr.C(fs, "v")},
		ProjNames: []string{"k", "grp", "v"},
	})
	_ = dim
	agg := b.PartitionedAgg(sel, exec.AggOpSpec{
		Name:         "agg",
		GroupBy:      []expr.Expr{expr.C(sel.Schema, "grp")},
		GroupByNames: []string{"grp"},
		Aggs:         []exec.AggSpec{{Func: exec.Count, Name: "cnt"}},
	}, 0)
	b.Collect(agg)
	res, err := Execute(b, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Kernels().ExchangeRows == 0 {
		t.Fatal("SetPartitions default did not partition the aggregation")
	}
	if got := len(Rows(res.Table)); got != 5 {
		t.Fatalf("grouped %d rows, want 5", got)
	}
}
