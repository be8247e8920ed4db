// Command benchmark is the repository's one fixed benchmark: the two ends of
// the paper's UoT spectrum and the two serving tiers, with end-to-end metrics
// measured untraced and per-layer metrics from a separate traced run.
//
//	bash benchmark/run.sh --workload tpch_pipelined --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -out benchmark/out/a.json          # every workload, five times, both runs
//	bash benchmark/run.sh -compare a.json b.json
//
// The last line of standard output of a single-workload run is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of "+fmt.Sprint(workloadNames)+"; empty runs all of them five times, untraced and traced")
	seed := fs.Uint64("seed", 1, "workload-generator seed: request order and invalidation points, nothing else")
	seconds := fs.Float64("seconds", 0, "how long a run measures; it stops at the first round boundary after this (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "with no -workload: result file (default <benchmark>/out/result.json)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: -compare a.json b.json")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}

	host, err := hostEnv(*seed)
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, spec.Paths[0], "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, SF: defaultSF,
		Trace: *trace != 0, OutDir: outDir, SetupRepeats: setupRepeats, KernelRows: defaultKernelRows,
	}
	if *workload != "" {
		res, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		printRun(cfg, res)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	// Every workload, fullRepeats times, untraced then traced: the result file
	// -compare reads.
	file := resultFile{Env: host, Workloads: map[string]*workloadResult{}}
	for _, w := range workloadNames {
		wr := &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		file.Workloads[w] = wr
		for rep := 0; rep < fullRepeats; rep++ {
			for _, traced := range []bool{false, true} {
				cfg.Workload, cfg.Trace = w, traced
				cfg.Seed = *seed + uint64(rep)
				res, err := runWorkload(cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", w, err)
				}
				printRun(cfg, res)
				wr.add(res, traced)
			}
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "result.json")
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for w, wr := range file.Workloads {
		if wr.Failed > 0 {
			return fmt.Errorf("%s: %d of %d requests failed", w, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (run.sh) or its parent (go run . inside the benchmark directory).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..; run from the repository root or the benchmark directory")
}

// hostInfo records where and on what a result was measured.
type hostInfo struct {
	Seed       uint64  `json:"seed"`
	SF         float64 `json:"sf"`
	P          int     `json:"p"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
}

// hostEnv pins GOMAXPROCS to P and refuses an environment that asks for more
// threads than the host has processors: such a run measures time-slicing.
func hostEnv(seed uint64) (hostInfo, error) {
	nproc, p := runtime.NumCPU(), parallelism()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > nproc {
			return hostInfo{}, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d", n, nproc)
		}
	}
	runtime.GOMAXPROCS(p)
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return hostInfo{
		Seed: seed, SF: defaultSF, P: p, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: commit,
	}, nil
}

// printRun prints every metric of a run by name with its unit.
func printRun(cfg config, res *runResult) {
	fmt.Printf("== %s seed=%d trace=%v: %d timed rounds, %d latency samples, %d attempted, %d failed\n",
		cfg.Workload, cfg.Seed, cfg.Trace, res.rounds, res.samples, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, note := range res.notes {
		fmt.Println("FAILED:", note)
	}
}
