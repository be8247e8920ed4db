// Command uotbench regenerates the paper's tables and figures and runs the
// robustness checks CI asserts.
//
// Usage:
//
//	uotbench [-sf 0.05] [-workers 20] [-runs 5] [-best 3] [-l3 8388608]
//	         [-trace F] [-metrics F] [-prom F] [IDs...]
//	uotbench -list
//
// With no IDs, every experiment runs in paper order. The IDs (documented in
// EXPERIMENTS.md and DESIGN.md) are
//
//   - the paper artifacts FIG2, FIG3, EQ1, SEC5C, TAB2, TAB3, TAB4, SEC6C,
//     FIG5, FIG6, FIG7, FIG8, FIG9, FIG10, TAB6, FIG11 and SEC6B;
//   - the ablations ABL-UOT (full UoT spectrum) and ABL-BLOCK (block size);
//   - the self-failing robustness checks CHAOS (TPC-H under a seeded fault
//     schedule must match the fault-free results exactly), ADAPT (the
//     adaptive per-edge UoT controller must reproduce the UoT=1 results;
//     times are reported against the static spectrum) and CCHAOS (eight
//     queries served concurrently, half under faults, plus a cancellation and
//     a deadline; non-faulted results bit-identical, zero leaks).
//
// Performance numbers for the kernels, serving, spill and reuse tiers come
// from the fixed benchmark (`bash benchmark/run.sh`, see benchmark/README.md),
// not from this command.
//
// -trace out.json attaches an execution tracer to the experiments that
// support it (FIG2, FIG3) and writes the collected timeline as a Chrome
// trace-event file (open in chrome://tracing or Perfetto; the FIG2 sections
// visually render the paper's Fig. 2 interleaving-vs-blocking schedules).
// -metrics out.json and -prom out.txt write the aggregate metrics snapshot
// of the same tracer as JSON and Prometheus-style exposition text. Flags may
// appear before or after experiment IDs: `uotbench FIG2 -trace fig2.json`
// works.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/trace"
)

func main() {
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	workers := flag.Int("workers", 20, "worker threads (T)")
	runs := flag.Int("runs", 5, "wall-clock repetitions per configuration")
	best := flag.Int("best", 3, "average the best K runs")
	l3 := flag.Int64("l3", 8<<20, "simulated L3 bytes for the cache model")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event timeline of the traced experiments (FIG2, FIG3) to this file")
	metricsPath := flag.String("metrics", "", "write the tracer's aggregate metrics snapshot as JSON to this file")
	promPath := flag.String("prom", "", "write the tracer's aggregate metrics snapshot as Prometheus text to this file")
	ids := parseInterleaved()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Paper)
		}
		return
	}

	var tr *trace.Tracer
	if *tracePath != "" || *metricsPath != "" || *promPath != "" {
		tr = trace.New(0)
	}

	h := bench.New(bench.Config{
		SF: *sf, Workers: *workers, Runs: *runs, Best: *best, SimL3Bytes: *l3,
		Trace: tr,
	})

	exps := bench.Experiments()
	if len(ids) > 0 {
		exps = exps[:0]
		for _, id := range ids {
			e, err := bench.Find(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	cfg := h.Config()
	fmt.Printf("uotbench: SF=%.3g workers=%d runs=%d best=%d simL3=%dMiB\n\n",
		cfg.SF, cfg.Workers, cfg.Runs, cfg.Best, cfg.SimL3Bytes>>20)
	for _, e := range exps {
		start := time.Now()
		rep, err := e.Run(h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		fmt.Printf("(%s regenerated %s in %v)\n\n", e.ID, e.Paper, time.Since(start).Round(time.Millisecond))
	}

	if *tracePath != "" {
		if err := tr.WriteChromeFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace (%d events) to %s\n", len(tr.Events()), *tracePath)
	}
	if *metricsPath != "" {
		if err := writeSnapshot(*metricsPath, tr.Snapshot().WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics snapshot (JSON) to %s\n", *metricsPath)
	}
	if *promPath != "" {
		if err := writeSnapshot(*promPath, tr.Snapshot().WritePrometheus); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics snapshot (Prometheus text) to %s\n", *promPath)
	}
}

// writeSnapshot streams one snapshot encoding to path.
func writeSnapshot(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseInterleaved parses os.Args allowing flags and positional experiment
// IDs to interleave (the flag package stops at the first positional
// argument, which would make `uotbench FIG2 -trace fig2.json` silently
// ignore -trace). It repeatedly parses, peels off leading positionals, and
// resumes parsing at the next flag.
func parseInterleaved() []string {
	flag.Parse()
	var ids []string
	rest := flag.Args()
	for len(rest) > 0 {
		i := 0
		for i < len(rest) && (!strings.HasPrefix(rest[i], "-") || rest[i] == "-" || rest[i] == "--") {
			ids = append(ids, rest[i])
			i++
		}
		if i == len(rest) {
			break
		}
		// flag.CommandLine uses ExitOnError: a bad flag exits with usage.
		flag.CommandLine.Parse(rest[i:])
		rest = flag.Args()
	}
	return ids
}
