package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload for one timed round (the fewest a run makes)
// after one set-up at SF 0.01, untraced and traced, and checks the output against BENCHMARK.json: every declared metric
// present and finite, nothing undeclared, no failed request, traces parse.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	out := t.TempDir()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{
				Workload: w, Seed: 1, SF: 0.01, Trace: traced,
				OutDir: out, SetupRepeats: 1, KernelRows: 1 << 14,
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < numQueries {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					w, traced, res.Correct, res.Attempted, res.Failed, res.notes)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, m.Name, got.Value)
				}
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("trace of %s does not parse: %v", w, err)
		}
		if tf.Requests < numQueries || tf.SelfNS["execute"] <= 0 {
			t.Errorf("trace of %s: %d requests, execute self time %d ns", w, tf.Requests, tf.SelfNS["execute"])
		}
		if _, served := tf.SelfNS["submit"]; served != strings.HasPrefix(w, "serve_") {
			t.Errorf("trace of %s: submit spans present = %v", w, served)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "spill-*")); len(left) != 0 {
		t.Errorf("spill directories left behind: %v", left)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "execute", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "verify", Start: 50, End: 90}, // overlaps execute by 10
		{ID: 4, Parent: 2, Name: "queue", Start: 10, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]int64{"request": 20, "execute": 40, "verify": 40, "queue": 10}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("self time of %s = %d, want %d", name, got[name], ns)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "throughput_qps", Better: "higher", Bound: 0.1},
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.1},
	}}
	host := hostInfo{SF: defaultSF, P: 2, NProc: 2, GOMAXPROCS: 2}
	write := func(name string, env hostInfo, qps, lat []float64) string {
		f := resultFile{Env: env, Workloads: map[string]*workloadResult{}}
		for _, w := range workloadNames {
			f.Workloads[w] = &workloadResult{EndToEnd: map[string]*series{
				"throughput_qps": {Unit: "1/s", Values: qps},
				"latency_p50_ms": {Unit: "ms", Values: lat},
			}}
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	base := write("a.json", host, steady, steady)
	var buf bytes.Buffer
	if err := compareFiles(sp, base, write("same.json", host, steady, []float64{105, 104, 106, 105, 105}), &buf); err != nil {
		t.Errorf("5%% slower under a 10%% bound: %v\n%s", err, &buf)
	} else if strings.Contains(buf.String(), "unresolved") {
		t.Errorf("steady runs inside the bound must be ok:\n%s", &buf)
	}
	buf.Reset()
	if err := compareFiles(sp, base, write("slow.json", host, []float64{80, 81, 79, 80, 80}, steady), &buf); err == nil {
		t.Errorf("20%% less throughput passed:\n%s", &buf)
	} else if !strings.Contains(buf.String(), "regressed") {
		t.Errorf("no regressed verdict printed:\n%s", &buf)
	}
	buf.Reset()
	if err := compareFiles(sp, base, write("noisy.json", host, []float64{60, 100, 140, 80, 120}, steady), &buf); err != nil {
		t.Errorf("a spread wider than the bound must be unresolved, not regressed: %v", err)
	} else if !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("no unresolved verdict printed:\n%s", &buf)
	}
	// Too few repeats to know the spread: nothing may read ok, on either side.
	for _, pair := range [][2]string{
		{write("one.json", host, steady[:1], steady[:1]), write("one-b.json", host, steady[:1], steady[:1])},
		{base, write("three.json", host, steady[:3], steady[:3])},
	} {
		buf.Reset()
		if err := compareFiles(sp, pair[0], pair[1], &buf); err != nil {
			t.Errorf("an unknown spread is unresolved, not regressed: %v", err)
		} else if strings.Contains(buf.String(), " ok") || !strings.Contains(buf.String(), "unresolved") {
			t.Errorf("fewer than four repeats must read unresolved:\n%s", &buf)
		}
	}
	// Results measured at different sizings have no verdict at all.
	for _, other := range []hostInfo{
		{SF: 2 * defaultSF, P: 2, NProc: 2, GOMAXPROCS: 2},
		{SF: defaultSF, P: 4, NProc: 2, GOMAXPROCS: 2},
		{SF: defaultSF, P: 2, NProc: 8, GOMAXPROCS: 2},
		{SF: defaultSF, P: 2, NProc: 2, GOMAXPROCS: 1},
	} {
		buf.Reset()
		if err := compareFiles(sp, base, write("other.json", other, steady, steady), &buf); err == nil {
			t.Errorf("compared %+v with %+v:\n%s", host, other, &buf)
		}
	}
}
