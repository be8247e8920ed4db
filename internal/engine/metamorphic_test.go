// Metamorphic property test: a randomized, seeded plan over int64-only data
// must produce the exact same result under every execution configuration —
// worker count, UoT, and temporary block size are scheduling knobs, not
// semantics. Integer-only plans make the equality exact (no float
// reassociation), so any divergence is a real scheduler/kernel bug. On a
// failure the harness shrinks the failing configuration toward the base
// config one field at a time and reports the minimal failing one.
package engine_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// mmCfg is one execution configuration under test.
type mmCfg struct {
	Workers int
	UoT     int
	Temp    int
	// Budget is the engine MemoryBudget. 1 holds every block-producing work
	// order while another job is in flight, and dispatches it anyway after
	// eight holds in a row: the reordered schedule must never change results
	// (int64-only data makes the equality exact).
	Budget int64
	// Spill, when positive, attaches a disk-backed spill tier with this
	// eviction threshold in bytes (1 = evict every cooled block). Round-trips
	// through the block codec and fault-in reordering are pure storage
	// mechanics, so results must be bit-identical to the in-RAM base run.
	Spill int64
	// Reuse runs the plan twice through a fresh cross-query result cache and
	// reports the warm (cache-served) result: splicing a cached subtree in
	// place of its recomputation must never change a single bit.
	Reuse bool
}

func (c mmCfg) String() string {
	uot := fmt.Sprint(c.UoT)
	if c.UoT == core.UoTTable {
		uot = "table"
	}
	return fmt.Sprintf("workers=%d uot=%s temp=%d budget=%d spill=%d reuse=%v",
		c.Workers, uot, c.Temp, c.Budget, c.Spill, c.Reuse)
}

var mmBase = mmCfg{Workers: 1, UoT: 1, Temp: 16 << 10}

// mmVariants are the configurations checked against the base: each scheduling
// dimension alone, plus combined far-corner configs that give the shrinker
// something to reduce.
var mmVariants = []mmCfg{
	{Workers: 2, UoT: 1, Temp: 16 << 10},
	{Workers: 7, UoT: 1, Temp: 16 << 10},
	{Workers: 1, UoT: 3, Temp: 16 << 10},
	{Workers: 1, UoT: 64, Temp: 16 << 10},
	{Workers: 1, UoT: core.UoTTable, Temp: 16 << 10},
	{Workers: 1, UoT: 1, Temp: 4 << 10},
	{Workers: 1, UoT: 1, Temp: 128 << 10},
	{Workers: 7, UoT: core.UoTTable, Temp: 4 << 10},
	{Workers: 2, UoT: 3, Temp: 128 << 10},
	{Workers: 4, UoT: 64, Temp: 4 << 10},
	{Workers: 7, UoT: core.UoTTable, Temp: 16 << 10},
	{Workers: 1, UoT: 1, Temp: 16 << 10, Budget: 1},
	{Workers: 7, UoT: 1, Temp: 4 << 10, Budget: 1},
	{Workers: 4, UoT: 16, Temp: 16 << 10, Budget: 1},
	{Workers: 1, UoT: 3, Temp: 16 << 10, Spill: 1},
	{Workers: 4, UoT: 16, Temp: 4 << 10, Spill: 32 << 10},
	{Workers: 2, UoT: 8, Temp: 16 << 10, Spill: 8 << 10},
	{Workers: 7, UoT: 64, Temp: 16 << 10, Budget: 1, Spill: 1},
	{Workers: 1, UoT: 1, Temp: 16 << 10, Reuse: true},
	{Workers: 7, UoT: 16, Temp: 4 << 10, Reuse: true},
	{Workers: 2, UoT: 3, Temp: 16 << 10, Reuse: true},
	{Workers: 4, UoT: 64, Temp: 16 << 10, Budget: 1, Reuse: true},
}

// mmSpec is a fully-resolved random plan: data shape and operator choices.
// Rebuilding from the spec is deterministic, so every execution constructs a
// fresh plan over the same tables.
type mmSpec struct {
	seed     int64
	factRows int
	dimKeys  int
	keySpace int
	groups   int
	pred     int // 0 none, 1 k<c, 2 g>=c, 3 k<c && g!=c2
	predC    int64
	predC2   int64
	join     int  // 0 none, 1 inner, 2 semi, 3 anti
	sortDesc bool // ORDER BY g DESC
	sortLim  int  // LIMIT (0 = none); g is unique per group, so any cut is deterministic
	aggs     []exec.AggFunc
	fact     *storage.Table
	dim      *storage.Table
}

func genSpec(seed int64) *mmSpec {
	r := rand.New(rand.NewSource(seed))
	s := &mmSpec{
		seed:     seed,
		factRows: 200 + r.Intn(800),
		keySpace: 20 + r.Intn(80),
		groups:   2 + r.Intn(6),
		pred:     r.Intn(4),
		join:     r.Intn(4),
	}
	s.dimKeys = 1 + r.Intn(s.keySpace)
	s.predC = int64(r.Intn(s.keySpace))
	s.predC2 = int64(r.Intn(s.groups))
	// Random ordering direction and, half the time, a LIMIT: the sort key is
	// the (unique) group key, so the truncated row set is configuration-
	// independent even though encodeRows canonicalization is order-blind.
	s.sortDesc = r.Intn(2) == 1
	if r.Intn(2) == 1 {
		s.sortLim = 1 + r.Intn(s.groups)
	}
	// 1-3 aggregates over v, plus an unconditional count.
	funcs := []exec.AggFunc{exec.Sum, exec.Min, exec.Max}
	r.Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	s.aggs = append([]exec.AggFunc{exec.Count}, funcs[:1+r.Intn(3)]...)

	// Base tables: fact(k, g, v) and dim(k, w), int64 only. Small blocks so
	// UoT grouping has real work to do.
	db := engine.NewDB(512, storage.ColumnStore)
	fact := db.CreateTable("mm_fact", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "g", Type: types.Int64},
		storage.Column{Name: "v", Type: types.Int64},
	))
	lf := storage.NewLoader(fact)
	for i := 0; i < s.factRows; i++ {
		lf.Append(
			types.NewInt64(int64(r.Intn(s.keySpace))),
			types.NewInt64(int64(r.Intn(s.groups))),
			types.NewInt64(int64(r.Intn(2001)-1000)),
		)
	}
	lf.Close()
	dim := db.CreateTable("mm_dim", storage.NewSchema(
		storage.Column{Name: "k", Type: types.Int64},
		storage.Column{Name: "w", Type: types.Int64},
	))
	ld := storage.NewLoader(dim)
	seen := map[int]bool{}
	for len(seen) < s.dimKeys {
		k := r.Intn(s.keySpace)
		if seen[k] {
			continue
		}
		seen[k] = true
		ld.Append(types.NewInt64(int64(k)), types.NewInt64(int64(r.Intn(100))))
	}
	ld.Close()
	s.fact, s.dim = fact, dim
	return s
}

// build constructs a fresh plan from the spec.
func (s *mmSpec) build() *engine.Builder {
	b := engine.NewBuilder()
	fs, ds := s.fact.Schema(), s.dim.Schema()

	var pred expr.Expr
	switch s.pred {
	case 1:
		pred = expr.Lt(expr.C(fs, "k"), expr.Int(s.predC))
	case 2:
		pred = expr.Ge(expr.C(fs, "g"), expr.Int(s.predC2))
	case 3:
		pred = expr.And(
			expr.Lt(expr.C(fs, "k"), expr.Int(s.predC)),
			expr.Ne(expr.C(fs, "g"), expr.Int(s.predC2)),
		)
	}
	selFact := b.ScanSelect(exec.SelectSpec{
		Name: "mm_sel", Base: s.fact, Pred: pred,
		Proj:      []expr.Expr{expr.C(fs, "k"), expr.C(fs, "g"), expr.C(fs, "v")},
		ProjNames: []string{"k", "g", "v"},
	})

	aggInput := selFact
	if s.join != 0 {
		selDim := b.ScanSelect(exec.SelectSpec{
			Name: "mm_sel_dim", Base: s.dim,
			Proj: []expr.Expr{expr.C(ds, "k"), expr.C(ds, "w")}, ProjNames: []string{"k", "w"},
		})
		var jt exec.JoinType
		var payload, buildProj []int
		rename := []string{"k", "g", "v"}
		switch s.join {
		case 1:
			jt = exec.Inner
			payload, buildProj = []int{1}, []int{0}
			rename = []string{"k", "g", "v", "w"}
		case 2:
			jt = exec.LeftSemi
		case 3:
			jt = exec.LeftAnti
		}
		bspec := exec.BuildSpec{
			Name: "mm_build", KeyCols: []int{0}, Payload: payload, ExpectedRows: s.dimKeys,
		}
		pspec := exec.ProbeSpec{
			Name: "mm_probe", KeyCols: []int{0}, JoinType: jt,
			ProbeProj: []int{0, 1, 2}, BuildProj: buildProj, Rename: rename,
		}
		bld, _ := b.Build(selDim, bspec)
		aggInput = b.Probe(selFact, bld, pspec)
	}

	var aggSpecs []exec.AggSpec
	for i, f := range s.aggs {
		spec := exec.AggSpec{Func: f, Name: fmt.Sprintf("a%d", i)}
		if f != exec.Count {
			spec.Arg = expr.C(aggInput.Schema, "v")
		}
		aggSpecs = append(aggSpecs, spec)
	}
	aggSpec := exec.AggOpSpec{
		Name:         "mm_agg",
		GroupBy:      []expr.Expr{expr.C(aggInput.Schema, "g")},
		GroupByNames: []string{"g"},
		Aggs:         aggSpecs,
	}
	agg := b.Agg(aggInput, aggSpec)
	srt := b.Sort(agg, exec.SortSpec{
		Name:  "mm_sort",
		Terms: []exec.SortTerm{{Key: expr.C(agg.Schema, "g"), Desc: s.sortDesc}},
		Limit: s.sortLim,
	})
	b.Collect(srt)
	return b
}

// runEncoded executes the spec under c and returns the canonicalized
// result (int64-only, so equality is exact).
func (s *mmSpec) runEncoded(c mmCfg) (string, error) {
	opts := engine.Options{
		Workers: c.Workers, UoTBlocks: c.UoT, TempBlockBytes: c.Temp,
		MemoryBudget: c.Budget,
	}
	if c.Spill > 0 {
		dir, err := os.MkdirTemp("", "mm-spill-")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		// The tier belongs to whoever owns the pool: here, this harness.
		pool := storage.NewPool(new(stats.MemGauge), nil)
		if err := pool.EnableSpill(storage.SpillConfig{Dir: dir, Threshold: c.Spill}); err != nil {
			return "", err
		}
		defer pool.CloseSpill()
		opts.Pool = pool
	}
	if c.Reuse {
		// Cold fill, then report the warm run: the result the cache serves is
		// the one compared against every other configuration.
		cache := reuse.New(reuse.Config{Budget: 16 << 20})
		opts.Reuse = cache
		if _, err := engine.Execute(s.build(), opts); err != nil {
			return "", err
		}
	}
	res, err := engine.Execute(s.build(), opts)
	if err != nil {
		return "", err
	}
	return strings.Join(encodeRows(engine.Rows(res.Table)), "\n"), nil
}

// shrinkConfig reduces a failing configuration toward the base one field at a
// time, keeping each reduction that still fails, and returns the minimal
// failing config.
func (s *mmSpec) shrinkConfig(t *testing.T, failing mmCfg, want string) mmCfg {
	t.Helper()
	cur := failing
	for changed := true; changed; {
		changed = false
		for _, reduce := range []func(mmCfg) mmCfg{
			func(c mmCfg) mmCfg { c.Workers = mmBase.Workers; return c },
			func(c mmCfg) mmCfg { c.UoT = mmBase.UoT; return c },
			func(c mmCfg) mmCfg { c.Temp = mmBase.Temp; return c },
			func(c mmCfg) mmCfg { c.Budget = mmBase.Budget; return c },
			func(c mmCfg) mmCfg { c.Spill = mmBase.Spill; return c },
			func(c mmCfg) mmCfg { c.Reuse = mmBase.Reuse; return c },
		} {
			trial := reduce(cur)
			if trial == cur {
				continue
			}
			got, err := s.runEncoded(trial)
			if err == nil && got == want {
				continue // reduction repaired it; keep the field
			}
			cur = trial
			changed = true
		}
	}
	return cur
}

func TestMetamorphicConfigInvariance(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			s := genSpec(seed)
			want, err := s.runEncoded(mmBase)
			if err != nil {
				t.Fatalf("base config %v: %v", mmBase, err)
			}
			for _, cfg := range mmVariants {
				got, err := s.runEncoded(cfg)
				if err != nil {
					t.Errorf("config %v errored: %v", cfg, err)
					continue
				}
				if got != want {
					min := s.shrinkConfig(t, cfg, want)
					t.Errorf("seed %d (join=%d pred=%d rows=%d): results diverge from base %v at %v; minimal failing config: %v",
						seed, s.join, s.pred, s.factRows, mmBase, cfg, min)
				}
			}
		})
	}
}
