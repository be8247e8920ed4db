package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/types"
)

// The oracles: deliberately naive row-at-a-time aggregation and sort that
// share nothing with the kernels — per-row Eval, Datum-boxed accumulators,
// groups found through a printed string key, one stable comparison sort over
// boxed key rows. They descend from the reference paths AggOp and SortOp
// used to carry at run time; the kernels are checked against them here.

type oracleCell struct {
	sumF     float64
	sumI     int64
	count    int64
	minmax   types.Datum
	set      bool
	distinct map[string]struct{}
}

type oracleGroup struct {
	keys []types.Datum
	acc  []oracleCell
}

// oracleKey prints a datum so that equal values print equal: chars by their
// trimmed bytes, floats exactly (with -0.0 printed as 0), the rest as
// integers.
func oracleKey(d types.Datum) string {
	switch d.Ty {
	case types.Char:
		return fmt.Sprintf("c%q", d.Bytes())
	case types.Float64:
		f := d.F
		if f == 0 {
			f = 0
		}
		return "f" + strconv.FormatFloat(f, 'x', -1, 64)
	default:
		return "i" + strconv.FormatInt(d.I, 10)
	}
}

func copyDatum(d types.Datum) types.Datum {
	if d.Ty == types.Char {
		d.B = append([]byte(nil), d.B...)
	}
	return d
}

// oracleAgg aggregates blocks row at a time and returns one row per group in
// first-seen order (a scalar aggregate always returns exactly one row).
func oracleAgg(spec AggOpSpec, blocks []*storage.Block) [][]types.Datum {
	groups := map[string]*oracleGroup{}
	var order []*oracleGroup
	find := func(key string, keys []types.Datum) *oracleGroup {
		g := groups[key]
		if g == nil {
			g = &oracleGroup{keys: keys, acc: make([]oracleCell, len(spec.Aggs))}
			groups[key] = g
			order = append(order, g)
		}
		return g
	}
	if len(spec.GroupBy) == 0 {
		find("", nil)
	}
	for _, b := range blocks {
		ec := expr.Ctx{B: b}
		for r := 0; r < b.NumRows(); r++ {
			ec.Row = r
			key := ""
			keys := make([]types.Datum, len(spec.GroupBy))
			for i, g := range spec.GroupBy {
				keys[i] = copyDatum(g.Eval(&ec))
				key += oracleKey(keys[i]) + "|"
			}
			g := find(key, keys)
			for i, a := range spec.Aggs {
				cell := &g.acc[i]
				cell.count++
				if a.Arg == nil {
					continue
				}
				v := a.Arg.Eval(&ec)
				switch a.Func {
				case Sum, Avg:
					cell.sumF += v.Float()
					cell.sumI += v.I
				case CountDistinct:
					if cell.distinct == nil {
						cell.distinct = map[string]struct{}{}
					}
					cell.distinct[oracleKey(v)] = struct{}{}
				case Min:
					if !cell.set || types.Compare(v, cell.minmax) < 0 {
						cell.minmax, cell.set = copyDatum(v), true
					}
				case Max:
					if !cell.set || types.Compare(v, cell.minmax) > 0 {
						cell.minmax, cell.set = copyDatum(v), true
					}
				}
			}
		}
	}
	rows := make([][]types.Datum, len(order))
	for gi, g := range order {
		row := append([]types.Datum{}, g.keys...)
		for i, a := range spec.Aggs {
			row = append(row, oracleFinish(a, &g.acc[i]))
		}
		rows[gi] = row
	}
	return rows
}

func oracleFinish(a AggSpec, c *oracleCell) types.Datum {
	switch a.Func {
	case Count:
		return types.NewInt64(c.count)
	case CountDistinct:
		return types.NewInt64(int64(len(c.distinct)))
	case Avg:
		if c.count == 0 {
			return types.NewFloat64(0)
		}
		return types.NewFloat64(c.sumF / float64(c.count))
	case Sum:
		if a.Arg.Type() == types.Int64 {
			return types.NewInt64(c.sumI)
		}
		return types.NewFloat64(c.sumF)
	default: // Min, Max
		if !c.set {
			return types.Datum{Ty: a.Arg.Type()}
		}
		return c.minmax
	}
}

// oracleSort boxes every row's keys into datums, stable-sorts them with the
// shared multi-term comparator (ties keep arrival order), and truncates to
// limit.
func oracleSort(terms []SortTerm, limit int, blocks []*storage.Block) [][]types.Datum {
	type sortRow struct {
		keys []types.Datum
		row  []types.Datum
	}
	var rows []sortRow
	desc := make([]bool, len(terms))
	for i, t := range terms {
		desc[i] = t.Desc
	}
	for _, b := range blocks {
		ec := expr.Ctx{B: b}
		for r := 0; r < b.NumRows(); r++ {
			ec.Row = r
			keys := make([]types.Datum, len(terms))
			for i, t := range terms {
				keys[i] = copyDatum(t.Key.Eval(&ec))
			}
			rows = append(rows, sortRow{keys: keys, row: b.Row(r)})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return types.CompareRows(rows[i].keys, rows[j].keys, desc) < 0
	})
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	out := make([][]types.Datum, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return out
}

// eqDatum compares exactly, except float64 values, which get a 1e-9 relative
// tolerance: the kernel sums each partial in arrival order and then merges
// partials, the oracle sums in one pass.
func eqDatum(a, b types.Datum) bool {
	if a.Ty != b.Ty {
		return false
	}
	if a.Ty == types.Float64 {
		return math.Abs(a.F-b.F) <= 1e-9*math.Max(1, math.Max(math.Abs(a.F), math.Abs(b.F)))
	}
	return a.I == b.I && string(a.Bytes()) == string(b.Bytes())
}

func sortByKeys(rows [][]types.Datum, nKeys int) {
	sort.Slice(rows, func(i, j int) bool {
		return types.CompareRows(rows[i][:nKeys], rows[j][:nKeys], nil) < 0
	})
}

// requireSameRows compares two result sets after sorting by the group keys.
func requireSameRows(t *testing.T, got, want [][]types.Datum, nKeys int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row counts differ: kernel %d, oracle %d", len(got), len(want))
	}
	sortByKeys(got, nKeys)
	sortByKeys(want, nKeys)
	for r := range got {
		for c := range got[r] {
			if !eqDatum(got[r][c], want[r][c]) {
				t.Fatalf("row %d col %d: kernel %+v, oracle %+v\nkernel row: %v\noracle row: %v",
					r, c, got[r][c], want[r][c], got[r], want[r])
			}
		}
	}
}

// requireAggMatchesOracle runs spec through the kernel and the oracle over
// the same blocks and compares the results.
func requireAggMatchesOracle(t *testing.T, spec AggOpSpec, blocks []*storage.Block) [][]types.Datum {
	t.Helper()
	op := NewAgg(spec)
	op.setID(10)
	got := allRows(runOp(t, execCtx(), op, 10, blocks...))
	requireSameRows(t, got, oracleAgg(spec, blocks), len(spec.GroupBy))
	return got
}

// runOpConcurrent drives an operator the way the scheduler would with
// `workers` goroutines: the work orders of each wave (feed, final, then each
// stage) race, waves run in sequence. A failed work order fails the test.
func runOpConcurrent(t *testing.T, ctx *core.ExecCtx, op core.Operator, id core.OpID, blocks []*storage.Block, workers int) ([]*storage.Block, []core.Output) {
	t.Helper()
	op.Init(ctx)
	var emitted []*storage.Block
	var outs []core.Output
	runWave := func(wos []core.WorkOrder) {
		wave := make([]core.Output, len(wos))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, wo := range wos {
			wg.Add(1)
			go func(i int, wo core.WorkOrder) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				err := wo.Run(ctx, &wave[i])
				wave[i].Finish(err)
				if err != nil {
					t.Errorf("work order failed: %v", err)
				}
			}(i, wo)
		}
		wg.Wait()
		for i := range wave {
			emitted = append(emitted, wave[i].Blocks...)
		}
		outs = append(outs, wave...)
	}
	var feed []core.WorkOrder
	for _, b := range blocks {
		feed = append(feed, op.Feed(ctx, 0, []*storage.Block{b})...)
	}
	runWave(feed)
	runWave(op.Final(ctx))
	if so, ok := op.(core.StagedOperator); ok {
		for stage := 0; ; stage++ {
			wos := so.NextStage(ctx, stage)
			if wos == nil {
				break
			}
			runWave(wos)
		}
	}
	return append(emitted, ctx.Pool.TakePartials(int(id))...), outs
}

// oracleSchema covers every key and argument type the kernels resolve.
func oracleSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "i", Type: types.Int64},
		storage.Column{Name: "d", Type: types.Date},
		storage.Column{Name: "f", Type: types.Float64},
		storage.Column{Name: "c4", Type: types.Char, Width: 4},
		storage.Column{Name: "c12", Type: types.Char, Width: 12},
		storage.Column{Name: "n", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Float64},
		storage.Column{Name: "seq", Type: types.Int64},
	)
}

// oracleBlocks fills nBlocks blocks of rowsPer rows. Key domains are narrow
// (plenty of duplicates and sort ties); c12 values share their 8-byte prefix
// and differ past it, which forces the wide-char tie-break; seq records
// arrival order.
func oracleBlocks(rng *rand.Rand, s *storage.Schema, nBlocks, rowsPer int) []*storage.Block {
	formats := []storage.Format{storage.ColumnStore, storage.RowStore}
	blocks := make([]*storage.Block, nBlocks)
	seq := int64(0)
	for bi := range blocks {
		b := storage.NewBlock(s, formats[bi%2], rowsPer*s.RowWidth()+256)
		for r := 0; r < rowsPer; r++ {
			b.AppendRow(
				types.NewInt64(int64(rng.Intn(7))-3),
				types.NewDate(int32(9000+400*rng.Intn(4)+rng.Intn(2))),
				types.NewFloat64(float64(rng.Intn(5))/4),
				types.NewString(string(rune('a'+rng.Intn(3)))),
				types.NewString("prefix--"+string(rune('a'+rng.Intn(3)))+string(rune('x'+rng.Intn(2)))),
				types.NewInt64(int64(rng.Intn(1000)-500)),
				types.NewFloat64(float64(rng.Intn(2048)-1024)/8),
				types.NewInt64(seq),
			)
			seq++
		}
		blocks[bi] = b
	}
	return blocks
}

// oracleKeyPool is what random GROUP BY keys and ORDER BY terms draw from:
// every 8-byte column type, a narrow and a wide char column, and a computed
// key of an integer and of a char type.
func oracleKeyPool(s *storage.Schema) []expr.Expr {
	return []expr.Expr{
		expr.C(s, "i"), expr.C(s, "d"), expr.C(s, "f"), expr.C(s, "c4"), expr.C(s, "c12"),
		expr.Year(expr.C(s, "d")), expr.Substr(expr.C(s, "c12"), 8, 3),
	}
}

func oracleAggPool(s *storage.Schema) []AggSpec {
	n, v := expr.C(s, "n"), expr.C(s, "v")
	n1, v2 := expr.AddE(n, expr.Int(1)), expr.MulE(v, expr.Float(2))
	var pool []AggSpec
	for _, f := range []AggFunc{Sum, Avg, Min, Max} {
		for _, arg := range []expr.Expr{n, v, n1, v2} {
			pool = append(pool, AggSpec{Func: f, Arg: arg})
		}
	}
	return append(pool,
		AggSpec{Func: Count},
		AggSpec{Func: Count, Arg: v},
		AggSpec{Func: Min, Arg: expr.C(s, "d")},
		AggSpec{Func: Min, Arg: expr.C(s, "c12")},
		AggSpec{Func: Max, Arg: expr.C(s, "c12")},
		AggSpec{Func: Max, Arg: expr.Substr(expr.C(s, "c12"), 9, 2)},
		AggSpec{Func: CountDistinct, Arg: n},
		AggSpec{Func: CountDistinct, Arg: expr.C(s, "c4")},
		AggSpec{Func: CountDistinct, Arg: expr.C(s, "f")},
	)
}

// TestOracleAggProperty: seeded random specs — 0–4 keys from the key pool,
// 1–5 aggregates from the aggregate pool — over empty, one-row and
// multi-block inputs, at 1 and 4 workers: the kernel's groups equal the
// oracle's (ints, chars, dates and row counts exactly, floats to 1e-9
// relative).
func TestOracleAggProperty(t *testing.T) {
	s := oracleSchema()
	rng := rand.New(rand.NewSource(14))
	keyPool, aggPool := oracleKeyPool(s), oracleAggPool(s)
	inputs := map[string][]*storage.Block{
		"empty":       nil,
		"one-row":     oracleBlocks(rng, s, 1, 1),
		"multi-block": oracleBlocks(rng, s, 9, 211),
	}
	for trial := 0; trial < 60; trial++ {
		spec := AggOpSpec{Name: "agg", InputSchema: s}
		for _, k := range rng.Perm(len(keyPool))[:rng.Intn(5)] {
			spec.GroupBy = append(spec.GroupBy, keyPool[k])
			spec.GroupByNames = append(spec.GroupByNames, fmt.Sprintf("k%d", k))
		}
		for j, a := range rng.Perm(len(aggPool))[:1+rng.Intn(5)] {
			as := aggPool[a]
			as.Name = fmt.Sprintf("a%d", j)
			spec.Aggs = append(spec.Aggs, as)
		}
		for name, blocks := range inputs {
			want := oracleAgg(spec, blocks)
			for _, workers := range []int{1, 4} {
				op := NewAgg(spec)
				op.setID(10)
				ctx := execCtx()
				ctx.Workers = workers
				emitted, outs := runOpConcurrent(t, ctx, op, 10, blocks, workers)
				t.Run(fmt.Sprintf("%d/%s/w%d/%s", trial, name, workers, op.Canon()), func(t *testing.T) {
					requireSameRows(t, allRows(emitted), want, len(spec.GroupBy))
					var rows int64
					for _, o := range outs {
						rows += o.AggFastRows
					}
					if total := int64(len(allRows(blocks))); rows != total {
						t.Errorf("AggFastRows = %d, want every input row (%d)", rows, total)
					}
				})
				op.Cleanup(ctx)
				if live := ctx.Run.HashTables.Live(); live != 0 {
					t.Errorf("trial %d: hash-table gauge after Cleanup = %d, want 0", trial, live)
				}
			}
		}
	}
}

// TestOracleSortProperty: 1–3 random terms from the same key pool plus a
// computed float term, random directions, with and without Limit, at 1 and 4
// workers: the kernel's output equals the oracle's row for row — including
// the arrival order of ties, which the seq column exposes.
func TestOracleSortProperty(t *testing.T) {
	s := oracleSchema()
	rng := rand.New(rand.NewSource(15))
	pool := append(oracleKeyPool(s), expr.MulE(expr.C(s, "f"), expr.Float(-3)))
	inputs := map[string][]*storage.Block{
		"empty":       nil,
		"one-row":     oracleBlocks(rng, s, 1, 1),
		"multi-block": oracleBlocks(rng, s, 12, 701), // enough rows for a multi-partition merge
	}
	for trial := 0; trial < 40; trial++ {
		var terms []SortTerm
		for _, k := range rng.Perm(len(pool))[:1+rng.Intn(3)] {
			terms = append(terms, SortTerm{Key: pool[k], Desc: rng.Intn(2) == 0})
		}
		limit := []int{0, 7}[trial%2]
		for name, blocks := range inputs {
			want := oracleSort(terms, limit, blocks)
			for _, workers := range []int{1, 4} {
				op := NewSort(SortSpec{Name: "sort", InputSchema: s, Terms: terms, Limit: limit})
				op.setID(11)
				ctx := execCtx()
				ctx.Workers = workers
				emitted, outs := runOpConcurrent(t, ctx, op, 11, blocks, workers)
				t.Run(fmt.Sprintf("%d/%s/w%d/%s", trial, name, workers, op.Canon()), func(t *testing.T) {
					if got := allRows(emitted); !rowsEqual(got, want) {
						t.Fatalf("kernel diverges from the oracle (%d vs %d rows)", len(got), len(want))
					}
					var rows int64
					for _, o := range outs {
						rows += o.SortFastRows
					}
					if total := int64(len(allRows(blocks))); rows != total {
						t.Errorf("SortFastRows = %d, want every input row (%d)", rows, total)
					}
				})
			}
		}
	}
}

// Join oracle: a nested loop over the build rows in arrival order for every
// probe row in arrival order, with the residual as plain Go — nothing shared
// with the hash table, Match or the pair emitters.

// joinSchemas are the build input (keys, a float and a char payload column,
// arrival number) and the probe input (keys, a float and a char column,
// arrival number).
func joinSchemas() (build, probe *storage.Schema) {
	build = storage.NewSchema(
		storage.Column{Name: "k0", Type: types.Int64},
		storage.Column{Name: "k1", Type: types.Int64},
		storage.Column{Name: "bv", Type: types.Float64},
		storage.Column{Name: "bc", Type: types.Char, Width: 5},
		storage.Column{Name: "bseq", Type: types.Int64},
	)
	probe = storage.NewSchema(
		storage.Column{Name: "k0", Type: types.Int64},
		storage.Column{Name: "k1", Type: types.Int64},
		storage.Column{Name: "pv", Type: types.Float64},
		storage.Column{Name: "pc", Type: types.Char, Width: 3},
		storage.Column{Name: "pseq", Type: types.Int64},
	)
	return build, probe
}

// collidingKeys returns n keys (k0, k1) whose hashes share one 7-bit tag and
// one shard, so they crowd the same groups and every tag compare also hits
// rows of other keys; k1 is zero unless twoKeys.
func collidingKeys(n int, twoKeys bool) [][2]int64 {
	var keys [][2]int64
	var want uint64
	for k := int64(0); len(keys) < n; k++ {
		key := [2]int64{k, 0}
		if twoKeys {
			key = [2]int64{k / 3, k % 3}
		}
		h := types.HashPairVec([]int64{key[0]}, []int64{key[1]}, nil)[0]
		sig := h&0x7f | (h>>48&63)<<7
		if len(keys) == 0 {
			want = sig
		}
		if sig == want {
			keys = append(keys, key)
		}
	}
	return keys
}

// joinBlocks fills nBlocks blocks of rowsPer rows of s whose keys are drawn
// from keys (so there are duplicates on both sides and, with extra keys in
// the pool, misses).
func joinBlocks(rng *rand.Rand, s *storage.Schema, formats []storage.Format, keys [][2]int64, nBlocks, rowsPer int) []*storage.Block {
	blocks := make([]*storage.Block, nBlocks)
	seq := int64(0)
	for bi := range blocks {
		b := storage.NewBlock(s, formats[bi%len(formats)], rowsPer*s.RowWidth()+64)
		for r := 0; r < rowsPer; r++ {
			k := keys[rng.Intn(len(keys))]
			b.AppendRow(types.NewInt64(k[0]), types.NewInt64(k[1]),
				types.NewFloat64(float64(rng.Intn(8))), types.NewString(string(rune('a'+rng.Intn(26)))),
				types.NewInt64(seq))
			seq++
		}
		blocks[bi] = b
	}
	return blocks
}

// oracleJoin joins probe rows to build rows by nested loops. keyCols are the
// key columns of both inputs; residual, if set, is pv < bv. Output columns:
// probeProj of the probe row, then buildProj of the build row (zeros for a
// left outer row without a match).
func oracleJoin(jt JoinType, build, probe []*storage.Block, keyCols, probeProj, buildProj []int, residual bool) [][]types.Datum {
	type row []types.Datum
	var buildRows []row
	for _, b := range build {
		for r := 0; r < b.NumRows(); r++ {
			buildRows = append(buildRows, b.Row(r))
		}
	}
	var out [][]types.Datum
	for _, pb := range probe {
		for r := 0; r < pb.NumRows(); r++ {
			p := pb.Row(r)
			var probeOut []types.Datum
			for _, c := range probeProj {
				probeOut = append(probeOut, p[c])
			}
			matched := false
			for _, b := range buildRows {
				same := true
				for _, k := range keyCols {
					same = same && p[k].I == b[k].I
				}
				if !same || residual && !(p[2].F < b[2].F) {
					continue
				}
				matched = true
				if jt == Inner || jt == LeftOuter {
					o := append([]types.Datum(nil), probeOut...)
					for _, c := range buildProj {
						o = append(o, b[c])
					}
					out = append(out, o)
				}
			}
			switch {
			case jt == LeftSemi && matched, jt == LeftAnti && !matched:
				out = append(out, probeOut)
			case jt == LeftOuter && !matched:
				o := append([]types.Datum(nil), probeOut...)
				for _, c := range buildProj {
					o = append(o, zeroDatum(build[0].Schema().Col(c)))
				}
				out = append(out, o)
			}
		}
	}
	return out
}

// zeroDatum is an all-zero cell of column c, as an outer join pads it.
func zeroDatum(c storage.Column) types.Datum {
	switch c.Type {
	case types.Float64:
		return types.NewFloat64(0)
	case types.Date:
		return types.NewDate(0)
	case types.Char:
		return types.NewChar(make([]byte, c.Width))
	default:
		return types.NewInt64(0)
	}
}

// TestOracleProbeProperty: the four join types, with and without a
// residual, over one and two key columns whose keys collide on tag and
// shard, with duplicates on both sides, misses, and row- and column-store
// probe input: ProbeOp's output equals the nested-loop oracle's row for row,
// in order. Two probe blocks end in a miss, so rows left unmatched after a
// block's last match are covered too.
func TestOracleProbeProperty(t *testing.T) {
	bs, ps := joinSchemas()
	for _, twoKeys := range []bool{false, true} {
		keyCols := []int{0}
		if twoKeys {
			keyCols = []int{0, 1}
		}
		keys := collidingKeys(24, twoKeys)
		rng := rand.New(rand.NewSource(29))
		build := joinBlocks(rng, bs, []storage.Format{storage.ColumnStore}, keys[:16], 3, 150)
		probe := joinBlocks(rng, ps, []storage.Format{storage.RowStore, storage.ColumnStore}, keys, 4, 333)
		for _, b := range probe[:2] { // a block that ends in a miss
			miss := keys[len(keys)-1]
			b.AppendRow(types.NewInt64(miss[0]), types.NewInt64(miss[1]),
				types.NewFloat64(0), types.NewString("m"), types.NewInt64(-1))
		}
		for _, jt := range []JoinType{Inner, LeftOuter, LeftSemi, LeftAnti} {
			for _, residual := range []bool{false, true} {
				name := fmt.Sprintf("keys=%d/%s/residual=%v", len(keyCols), jt, residual)
				t.Run(name, func(t *testing.T) {
					ctx := execCtx()
					spec := BuildSpec{Name: "build", InputSchema: bs, KeyCols: keyCols, ExpectedRows: 64}
					if jt == Inner || jt == LeftOuter || residual {
						spec.Payload = []int{4, 2, 3} // bseq, bv, bc
					}
					bop := NewBuildHash(spec)
					bop.setID(20)
					runOp(t, ctx, bop, 20, build...)
					pspec := ProbeSpec{
						Name: "probe", Build: bop, InputSchema: ps, KeyCols: keyCols, JoinType: jt,
						ProbeProj: []int{4, 3, 2}, // pseq, pc, pv
					}
					var buildProj []int
					if jt == Inner || jt == LeftOuter {
						pspec.BuildProj = []int{0, 2, 1} // bseq, bc, bv of the payload
						buildProj = []int{4, 3, 2}
					}
					if residual {
						pspec.Residual = expr.Lt(expr.C(ps, "pv"), expr.C2(bop.PayloadSchema(), "bv"))
					}
					pop := NewProbe(pspec)
					pop.setID(21)
					got := allRows(runOp(t, ctx, pop, 21, probe...))
					want := oracleJoin(jt, build, probe, keyCols, []int{4, 3, 2}, buildProj, residual)
					if len(want) == 0 {
						t.Fatal("oracle emits nothing; the case tests nothing")
					}
					if !rowsEqual(got, want) {
						for i := range got {
							if i >= len(want) || !rowsEqual(got[i:i+1], want[i:i+1]) {
								t.Fatalf("%d rows, oracle %d; first difference at row %d: %v vs %v", len(got), len(want), i, got[i], want[min(i, len(want)-1)])
							}
						}
						t.Fatalf("%d rows, oracle %d", len(got), len(want))
					}
					pop.Cleanup(ctx)
					if live := ctx.Run.HashTables.Live(); live != 0 {
						t.Errorf("hash-table gauge after Cleanup = %d, want 0", live)
					}
				})
			}
		}
	}
}
