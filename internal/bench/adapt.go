package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// adaptStatics is the static UoT spectrum the adaptive controller is judged
// against: the two paper endpoints plus intermediate operating points.
var adaptStatics = []int{1, 4, 16, 64, core.UoTTable}

func adaptStaticLabel(uot int) string {
	if uot == core.UoTTable {
		return "table"
	}
	return fmt.Sprintf("%d", uot)
}

// AdaptiveProfile (ADAPT) sweeps the Fig. 7 query suite at 128 KB
// column-store blocks over the static UoT spectrum and the adaptive per-edge
// controller, wall clock best-of-runs. Three things are checked per query:
// the adaptive result matches the UoT=1 reference (float aggregates within
// 1e-6 — mid-run UoT changes regroup work orders, so summation order may
// differ), the adaptive time lands near the best static setting, and the
// per-edge decision counters surface what the controller actually did.
func (h *Harness) AdaptiveProfile() (*Report, error) {
	r := &Report{
		ID:    "ADAPT",
		Title: "Adaptive per-edge UoT vs static settings, column store 128KB (wall ms)",
	}
	r.Header = append(r.Header, "query")
	for _, uot := range adaptStatics {
		r.Header = append(r.Header, "uot="+adaptStaticLabel(uot))
	}
	r.Header = append(r.Header, "adaptive", "vs_best", "vs_worst", "raise/lower/snap", "result")

	const blockBytes = 128 << 10
	d := h.Dataset(blockBytes, storage.ColumnStore)
	within5, faster20 := 0, 0
	for _, num := range tpch.Numbers() {
		// Reference result at UoT=1 for the correctness check.
		refRes, err := h.run(d, num, engine.Options{
			Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: blockBytes,
		}, tpch.QueryOpts{})
		if err != nil {
			return nil, fmt.Errorf("ADAPT: reference Q%d: %w", num, err)
		}
		ref := engine.Rows(refRes.Table)
		engine.SortRows(ref)

		row := []string{fmt.Sprintf("Q%02d", num)}
		var bestStatic, worstStatic time.Duration
		for _, uot := range adaptStatics {
			dur, _, err := h.bestOf(func() (*stats.Run, error) {
				res, err := h.run(d, num, engine.Options{
					Workers: h.cfg.Workers, UoTBlocks: uot, TempBlockBytes: blockBytes,
				}, tpch.QueryOpts{})
				if err != nil {
					return nil, err
				}
				return res.Run, nil
			})
			if err != nil {
				return nil, fmt.Errorf("ADAPT: Q%d uot=%s: %w", num, adaptStaticLabel(uot), err)
			}
			if bestStatic == 0 || dur < bestStatic {
				bestStatic = dur
			}
			if dur > worstStatic {
				worstStatic = dur
			}
			row = append(row, ms(dur))
		}

		resultOK := true
		adaptDur, adaptRun, err := h.bestOf(func() (*stats.Run, error) {
			res, err := h.run(d, num, engine.Options{
				Workers: h.cfg.Workers, UoTBlocks: 1, TempBlockBytes: blockBytes,
				AdaptiveUoT: true,
			}, tpch.QueryOpts{})
			if err != nil {
				return nil, err
			}
			rows := engine.Rows(res.Table)
			engine.SortRows(rows)
			if !chaosSameRows(ref, rows) {
				resultOK = false
			}
			return res.Run, nil
		})
		if err != nil {
			return nil, fmt.Errorf("ADAPT: Q%d adaptive: %w", num, err)
		}
		if !resultOK {
			return nil, fmt.Errorf("ADAPT: Q%d adaptive result deviates from the UoT=1 reference", num)
		}

		var raises, lowers, snaps int64
		for _, e := range adaptRun.EdgeUoTs() {
			raises += e.Raises
			lowers += e.Lowers
			snaps += e.Snaps
		}
		vsBest := 100 * (adaptDur.Seconds() - bestStatic.Seconds()) / bestStatic.Seconds()
		vsWorst := 100 * (adaptDur.Seconds() - worstStatic.Seconds()) / worstStatic.Seconds()
		if vsBest <= 5 {
			within5++
		}
		if vsWorst <= -20 {
			faster20++
		}
		row = append(row, ms(adaptDur),
			fmt.Sprintf("%+.1f%%", vsBest),
			fmt.Sprintf("%+.1f%%", vsWorst),
			fmt.Sprintf("%d/%d/%d", raises, lowers, snaps),
			pass(resultOK))
		r.AddRow(row...)
	}
	r.Note("vs_best: adaptive time relative to the best static setting per query (<= +5%% target)")
	r.Note("vs_worst: relative to the worst static setting (negative = adaptive faster)")
	r.Note("%d/%d queries within 5%% of best static; %d at least 20%% faster than worst static",
		within5, len(tpch.Numbers()), faster20)
	return r, nil
}
