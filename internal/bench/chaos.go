package bench

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/types"
)

// chaosRate is the per-consultation fault probability at every site during
// the CHAOS experiment (the acceptance bar is >= 1%).
const chaosRate = 0.02

// chaosSeed fixes the fault schedule; the same seed must replay the same
// schedule, and CI runs the experiment at this seed.
const chaosSeed = 7

// Chaos subjects the TPC-H queries with the richest operator mix (Q1 agg,
// Q13 outer join + agg, Q15 scalar subquery, Q18 large join + agg) to a
// seeded fault schedule — errors, panics, latency, and allocation failures
// at every injection site — and asserts three things per query: the result
// is identical to the fault-free run (float aggregates within 1e-6, since
// retries may reorder summation), nothing leaked (blocks, or bytes on the
// run's pool and hash-table gauges), and re-running at one worker with the
// same seed fires the identical fault schedule. Any violation fails the
// experiment.
func (h *Harness) Chaos() (*Report, error) {
	r := &Report{
		ID:    "CHAOS",
		Title: "Fault injection under retry/rollback (results vs fault-free runs)",
		Header: []string{
			"query", "faults", "retries", "result", "replay", "leaked_blocks", "leaked_bytes", "wall_ms",
		},
	}
	d := h.Dataset(128<<10, storage.ColumnStore)
	var totalInjected int64
	for _, q := range []int{1, 13, 15, 18} {
		baseRes, err := h.run(d, q, engine.Options{
			Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: 128 << 10,
		}, tpch.QueryOpts{})
		if err != nil {
			return nil, fmt.Errorf("CHAOS: fault-free Q%d: %w", q, err)
		}
		base := engine.Rows(baseRes.Table)
		engine.SortRows(base)

		inj := faults.New(faults.Config{
			Seed:       chaosSeed,
			Rates:      chaosSiteRates(),
			MaxLatency: 50 * time.Microsecond,
		})
		start := time.Now()
		res, err := h.run(d, q, chaosOptions(inj, h.cfg.Workers), tpch.QueryOpts{})
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("CHAOS: Q%d failed under %.0f%% faults: %w", q, 100*chaosRate, err)
		}
		rows := engine.Rows(res.Table)
		engine.SortRows(rows)
		resultOK := chaosSameRows(base, rows)

		replayOK, err := h.chaosReplayIdentical(d, q)
		if err != nil {
			return nil, fmt.Errorf("CHAOS: Q%d replay: %w", q, err)
		}

		rb := res.Run.Robust()
		totalInjected += rb.FaultsInjected
		r.AddRow(
			fmt.Sprintf("Q%02d", q),
			fmt.Sprintf("%d", rb.FaultsInjected),
			fmt.Sprintf("%d", rb.Retries),
			pass(resultOK),
			pass(replayOK),
			fmt.Sprintf("%d", rb.LeakedBlocks),
			fmt.Sprintf("%d", rb.LeakedBytes),
			fmt.Sprintf("%.2f", float64(wall)/float64(time.Millisecond)),
		)
		if !resultOK {
			return nil, fmt.Errorf("CHAOS: Q%d result differs from the fault-free run", q)
		}
		if !replayOK {
			return nil, fmt.Errorf("CHAOS: Q%d did not replay the same fault schedule for the same seed", q)
		}
		if rb.LeakedBlocks != 0 || rb.LeakedBytes != 0 {
			return nil, fmt.Errorf("CHAOS: Q%d leaked %d blocks, %d bytes", q, rb.LeakedBlocks, rb.LeakedBytes)
		}
	}
	if totalInjected == 0 {
		return nil, fmt.Errorf("CHAOS: no faults fired at rate %.0f%% — injector is not wired in", 100*chaosRate)
	}
	r.Note("seed %d, %.0f%% fault rate per site (errors, panics, latency, alloc failures); results compared sorted, floats within 1e-6", chaosSeed, 100*chaosRate)
	r.Note("replay = same seed at 1 worker fires the identical fault schedule twice")
	return r, nil
}

func chaosSiteRates() map[faults.Site]float64 {
	m := map[faults.Site]float64{}
	for _, s := range faults.Sites() {
		m[s] = chaosRate
	}
	return m
}

func chaosOptions(inj *faults.Injector, workers int) engine.Options {
	return engine.Options{
		Workers:        workers,
		UoTBlocks:      1,
		TempBlockBytes: 128 << 10,
		Faults:         inj,
	}
}

// chaosReplayIdentical runs the query twice at one worker with the same seed
// and reports whether both runs fired the identical fault schedule.
func (h *Harness) chaosReplayIdentical(d *tpch.Dataset, q int) (bool, error) {
	var schedules [2][]faults.Event
	for i := range schedules {
		inj := faults.New(faults.Config{
			Seed:  chaosSeed,
			Rates: chaosSiteRates(),
			Kinds: []faults.Kind{faults.KindError},
		})
		if _, err := h.run(d, q, chaosOptions(inj, 1), tpch.QueryOpts{}); err != nil {
			return false, err
		}
		schedules[i] = inj.Schedule()
	}
	return reflect.DeepEqual(schedules[0], schedules[1]), nil
}

// chaosSameRows compares sorted result sets, allowing 1e-6 relative drift on
// Float64 columns (retried runs may sum in a different order).
func chaosSameRows(a, b [][]types.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Ty == types.Float64 && y.Ty == types.Float64 {
				diff := x.F - y.F
				if diff < 0 {
					diff = -diff
				}
				scale := 1.0
				for _, v := range []float64{x.F, y.F} {
					if v < 0 {
						v = -v
					}
					if v > scale {
						scale = v
					}
				}
				if diff > 1e-6*scale {
					return false
				}
				continue
			}
			if types.Compare(x, y) != 0 {
				return false
			}
		}
	}
	return true
}

func pass(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}
