package main

// Result files and their comparison against the bounds BENCHMARK.json fixes.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Paths      []string     `json:"paths"`
	RunSeconds float64      `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Paths) == 0 {
		return nil, fmt.Errorf("%s: no paths", path)
	}
	return &s, nil
}

// resultFile is what a run over every workload writes and -compare reads.
type resultFile struct {
	Env       hostInfo                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

// series is one metric's value in each repeat.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func (w *workloadResult) add(res *runResult, traced bool) {
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	into := w.EndToEnd
	if traced {
		into = w.PerLayer
	}
	for name, m := range res.Metrics {
		if into[name] == nil {
			into[name] = &series{Unit: m.Unit}
		}
		into[name].Values = append(into[name].Values, m.Value)
	}
}

// spread is the distance between the first and third quartile as a share of
// the median, by the method of Python's statistics.quantiles(values, n=4)
// (exclusive). It needs at least four values to mean anything.
func spread(values []float64) (float64, bool) {
	n := len(values)
	if n < 4 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		i := min(max(int(pos), 1), n-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(3)-q(1), median(s)), true
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// ratio b/a and a verdict: ok, regressed (b worse than a by more than the
// bound) or unresolved (a side's run-to-run spread is wider than the bound, or
// unknown because the side has fewer than four repeats, so the comparison
// cannot tell). It refuses two files measured at different sizings and returns
// an error on any regressed.
func compareFiles(sp *spec, pathA, pathB string, out io.Writer) error {
	var a, b resultFile
	for i, into := range []*resultFile{&a, &b} {
		path := []string{pathA, pathB}[i]
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	ea, eb := a.Env, b.Env
	if ea.SF != eb.SF || ea.P != eb.P || ea.NProc != eb.NProc || ea.GOMAXPROCS != eb.GOMAXPROCS {
		return fmt.Errorf("not comparable: a ran at sf=%g p=%d nproc=%d gomaxprocs=%d, b at sf=%g p=%d nproc=%d gomaxprocs=%d",
			ea.SF, ea.P, ea.NProc, ea.GOMAXPROCS, eb.SF, eb.P, eb.NProc, eb.GOMAXPROCS)
	}
	fmt.Fprintf(out, "base a = %s (commit %s, %d cpus)\n     b = %s (commit %s, %d cpus)\n",
		pathA, a.Env.GitCommit, a.Env.NProc, pathB, b.Env.GitCommit, b.Env.NProc)
	fmt.Fprintf(out, "%-15s %-17s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "b/a", "bound", "spread", "verdict")
	regressed := 0
	for _, w := range workloadNames {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s missing from a result file", w)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(out, "%-15s failed requests: a=%d b=%d  regressed\n", w, wa.Failed, wb.Failed)
			regressed++
		}
		for _, m := range sp.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				return fmt.Errorf("%s: metric %s missing from a result file", w, m.Name)
			}
			ma, mb := median(sa.Values), median(sb.Values)
			r := ratio(mb, ma)
			worse := r - 1
			if m.Better == "higher" {
				worse = 1 - r
			}
			spreadA, okA := spread(sa.Values)
			spreadB, okB := spread(sb.Values)
			widest := max(spreadA, spreadB)
			verdict, shown := "ok", "n/a"
			if okA && okB {
				shown = fmt.Sprintf("%.3f", widest)
			}
			switch {
			case !okA || !okB, widest > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(out, "%-15s %-17s %12.5g %12.5g %8.4f %7.2f %7s  %s\n",
				w, m.Name, ma, mb, r, m.Bound, shown, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
