package bench

import (
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// tiny returns a harness at the smallest useful scale.
func tiny() *Harness {
	return New(Config{SF: 0.005, Workers: 4, Runs: 1, Best: 1})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SF != 0.05 || c.Workers != 20 || c.Runs != 5 || c.Best != 3 || c.SimL3Bytes != 8<<20 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Best is clamped to Runs.
	c2 := Config{Runs: 2, Best: 5}.withDefaults()
	if c2.Best != 2 {
		t.Fatalf("Best not clamped: %+v", c2)
	}
}

// TestExperimentRegistry pins the registry by name — a paper artifact, an
// ablation or a CI-asserted robustness check, nothing else — and keeps the
// two places that document the IDs from drifting away from it.
func TestExperimentRegistry(t *testing.T) {
	want := strings.Fields(`FIG2 FIG3 EQ1 SEC5C TAB2 TAB3 TAB4 SEC6C FIG5 FIG6 FIG7 FIG8
		FIG9 FIG10 TAB6 FIG11 SEC6B ABL-UOT ABL-BLOCK CHAOS ADAPT CCHAOS`)
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("experiment IDs = %v, want %v", got, want)
	}

	experimentsMD, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "../../cmd/uotbench/main.go", nil,
		parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	usage := f.Doc.Text()

	kind := regexp.MustCompile(`^(Fig\. \d+|Table [IVX]+|Section [IVX]+-[A-C]|ablation: |robustness: )`)
	for _, e := range Experiments() {
		if e.Run == nil {
			t.Errorf("experiment %s has no runner", e.ID)
		}
		if !kind.MatchString(e.Paper) {
			t.Errorf("experiment %s: %q names no paper figure/table/section, ablation or robustness check", e.ID, e.Paper)
		}
		word := regexp.MustCompile(`\b` + regexp.QuoteMeta(e.ID) + `\b`)
		if !word.Match(experimentsMD) {
			t.Errorf("experiment %s is not described in EXPERIMENTS.md", e.ID)
		}
		if !word.MatchString(usage) {
			t.Errorf("experiment %s is not listed in uotbench's package comment", e.ID)
		}
	}
	if _, err := Find("FIG7"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("NOPE"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "X", Title: "t", Header: []string{"a", "bbbb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.Note("hello %d", 7)
	s := r.String()
	for _, want := range []string{"== X: t ==", "a    bbbb", "333", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestDatasetCaching(t *testing.T) {
	h := tiny()
	a := h.Dataset(32<<10, 0)
	b := h.Dataset(32<<10, 0)
	if a != b {
		t.Fatal("dataset should be cached per (sf, block, format)")
	}
	if c := h.DatasetSF(0.004, 32<<10, 0); c == a {
		t.Fatal("different SF must not share a dataset")
	}
}

// TestCheapExperimentsProduceRows runs the analytical and light experiments
// end-to-end at tiny scale and sanity-checks their structure.
func TestCheapExperimentsProduceRows(t *testing.T) {
	h := tiny()
	for _, id := range []string{"EQ1", "SEC5C", "FIG2", "TAB3", "TAB4", "SEC6C", "SEC6B", "TAB2", "CHAOS"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(h)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		for _, row := range rep.Rows {
			if len(row) != len(rep.Header) {
				t.Errorf("%s: row arity %d vs header %d", id, len(row), len(rep.Header))
			}
		}
	}
}

func TestFig3CoversAllQueries(t *testing.T) {
	h := tiny()
	rep, err := h.Fig3OperatorBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 22 {
		t.Fatalf("Fig3 rows = %d, want 22", len(rep.Rows))
	}
}

func TestLptMakespan(t *testing.T) {
	// 4 jobs of 3 + 2 jobs of 5 on 2 workers: LPT gives 5+3 / 5+3 (+3+3 on
	// one) -> makespan 11.
	if got := lptMakespan([]int64{3, 5, 3, 5, 3, 3}, 2); got != 11 {
		t.Fatalf("lpt = %d", got)
	}
	if got := lptMakespan([]int64{7}, 4); got != 7 {
		t.Fatalf("single job = %d", got)
	}
	if got := lptMakespan(nil, 3); got != 0 {
		t.Fatalf("empty = %d", got)
	}
	if got := lptMakespan([]int64{1, 1, 1}, 0); got != 3 {
		t.Fatalf("zero workers should clamp to 1: %d", got)
	}
}

func TestRunLength(t *testing.T) {
	if got := runLength([]byte("SSSPPS")); got != "S*3 P*2 S" {
		t.Fatalf("runLength = %q", got)
	}
	if got := runLength(nil); got != "(empty)" {
		t.Fatalf("empty = %q", got)
	}
}
