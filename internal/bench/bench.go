// Package bench regenerates every table and figure of the paper's
// evaluation (Section VII) plus the analytical artifacts of Sections V and
// VI. Each experiment is a method on Harness returning a Report whose rows
// mirror what the paper plots; cmd/uotbench prints them and bench_test.go
// wraps them in testing.B benchmarks.
//
// Two kinds of measurement are used, as laid out in DESIGN.md:
//
//   - wall-clock time for scheduling/parallelism effects (Figs. 6-11),
//     reported as the mean of the best k of n runs (the paper uses best 3 of
//     10) with a GC between runs;
//   - deterministic simulated time from internal/cachesim for cache-level
//     effects that Go cannot measure or control directly — probe-input
//     hotness (Fig. 5) and hardware prefetching (Table VI). The simulated
//     L3 is scaled down with the data scale so that the paper's
//     |intermediate| / |L3| and B·T / |L3| ratios are preserved.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// Config parameterizes the harness.
type Config struct {
	// SF is the TPC-H scale factor (default 0.05; the paper uses 50 on a
	// 160 GB machine — the ratio of data to simulated cache is preserved
	// instead).
	SF float64
	// Workers is T for the main experiments (default 20, as in the paper).
	Workers int
	// Runs and Best select the repetition policy for wall-clock numbers
	// (default best 3 of 5; the paper uses best 3 of 10).
	Runs, Best int
	// SimL3Bytes is the simulated L3 capacity (default 8 MB; 25 MB at SF 50
	// scales to ~8 MB at SF 0.05 relative to table sizes).
	SimL3Bytes int64
	// Trace, if non-nil, collects execution traces from the experiments that
	// support it (FIG2 schedule shapes, FIG3 operator breakdowns): each
	// traced execution becomes one labeled section of the tracer, and
	// cmd/uotbench -trace writes the result as a Chrome trace-event file.
	Trace *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.SF == 0 {
		c.SF = 0.05
	}
	if c.Workers == 0 {
		c.Workers = 20
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Best == 0 {
		c.Best = 3
	}
	if c.Best > c.Runs {
		c.Best = c.Runs
	}
	if c.SimL3Bytes == 0 {
		c.SimL3Bytes = 8 << 20
	}
	return c
}

// Harness caches generated datasets across experiments.
type Harness struct {
	cfg  Config
	data map[dsKey]*tpch.Dataset
}

type dsKey struct {
	sf         float64
	blockBytes int
	format     storage.Format
}

// New returns a harness.
func New(cfg Config) *Harness {
	return &Harness{cfg: cfg.withDefaults(), data: map[dsKey]*tpch.Dataset{}}
}

// Config returns the effective configuration.
func (h *Harness) Config() Config { return h.cfg }

// Dataset returns (and caches) the TPC-H dataset with the given base-table
// block size and format at the configured scale factor.
func (h *Harness) Dataset(blockBytes int, format storage.Format) *tpch.Dataset {
	return h.DatasetSF(h.cfg.SF, blockBytes, format)
}

// DatasetSF returns (and caches) a dataset at an explicit scale factor; the
// scalability experiments need the orders hash table to outgrow the
// simulated L3 regardless of the configured SF.
func (h *Harness) DatasetSF(sf float64, blockBytes int, format storage.Format) *tpch.Dataset {
	k := dsKey{sf, blockBytes, format}
	if d, ok := h.data[k]; ok {
		return d
	}
	d := tpch.Load(sf, blockBytes, format)
	h.data[k] = d
	return d
}

// scaleSF is the scale factor used by the Fig. 9/10 scalability runs.
func (h *Harness) scaleSF() float64 {
	if h.cfg.SF > 0.2 {
		return h.cfg.SF
	}
	return 0.2
}

// sim returns a fresh scaled cache simulator with bandwidth contention set
// for the configured worker count (callers override per experiment).
func (h *Harness) sim() *cachesim.Sim {
	p := cachesim.Default()
	p.L3Bytes = h.cfg.SimL3Bytes
	s := cachesim.New(p)
	s.SetThreads(h.cfg.Workers)
	return s
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a footnote.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, hc := range r.Header {
		widths[i] = len(hc)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// bestOf executes fn cfg.Runs times and returns the mean wall time of the
// best cfg.Best runs, forcing a GC between runs to keep the collector out of
// the measurement.
func (h *Harness) bestOf(fn func() (*stats.Run, error)) (time.Duration, *stats.Run, error) {
	var durs []time.Duration
	var last *stats.Run
	for i := 0; i < h.cfg.Runs; i++ {
		runtime.GC()
		run, err := fn()
		if err != nil {
			return 0, nil, err
		}
		durs = append(durs, run.WallTime())
		last = run
	}
	// selection-sort the few durations; keep the best cfg.Best.
	for i := 0; i < len(durs); i++ {
		for j := i + 1; j < len(durs); j++ {
			if durs[j] < durs[i] {
				durs[i], durs[j] = durs[j], durs[i]
			}
		}
	}
	var sum time.Duration
	for _, d := range durs[:h.cfg.Best] {
		sum += d
	}
	return sum / time.Duration(h.cfg.Best), last, nil
}

// traced attaches the harness tracer (if any) to an execution's options,
// labeling its trace section.
func (h *Harness) traced(o engine.Options, label string) engine.Options {
	if h.cfg.Trace.Enabled() {
		o.Trace = h.cfg.Trace
		o.TraceLabel = label
	}
	return o
}

// run executes a TPC-H query once with the given options.
func (h *Harness) run(d *tpch.Dataset, num int, opts engine.Options, qo tpch.QueryOpts) (*engine.Result, error) {
	b, err := tpch.Build(d, num, qo)
	if err != nil {
		return nil, err
	}
	return engine.Execute(b, opts)
}

// opTotals finds an operator's totals by name in a run.
func opTotals(run *stats.Run, name string) (stats.OpTotals, bool) {
	for _, t := range run.PerOp() {
		if t.Name == name {
			return t, true
		}
	}
	return stats.OpTotals{}, false
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
func simMs(ticks int64) string  { return fmt.Sprintf("%.3f", float64(ticks)/1e6) }
func mib(b int64) string        { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
func pct(f float64) string      { return fmt.Sprintf("%.1f", 100*f) }
func ratio2(f float64) string   { return fmt.Sprintf("%.2f", f) }
