package stats

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// Kernel is a field list kept in three places in one file (struct,
// KernelCounters, Add). This pins them together: a field without a table row,
// a row pointing at the wrong field, or a field Add forgets fails here.
func TestKernelTableCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Kernel{})
	// Every counter is an exported name (a JSON key and a Prometheus
	// family), so the count only moves on purpose.
	if typ.NumField() != 8 {
		t.Fatalf("Kernel has %d fields, want 8", typ.NumField())
	}
	if len(KernelCounters) != typ.NumField() {
		t.Fatalf("KernelCounters has %d rows, Kernel has %d fields", len(KernelCounters), typ.NumField())
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	seen := map[string]bool{}

	// Field i holds the distinct value i+1, so a visit is attributable.
	var k Kernel
	kv := reflect.ValueOf(&k).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Kernel.%s is %s, want int64", f.Name, f.Type)
		}
		kv.Field(i).SetInt(int64(i + 1))

		c := KernelCounters[i]
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != c.Name {
			t.Errorf("Kernel.%s: json tag %q, table row %d is %q", f.Name, tag, i, c.Name)
		}
		if !snake.MatchString(c.Name) || seen[c.Name] {
			t.Errorf("counter name %q is not unique snake_case", c.Name)
		}
		seen[c.Name] = true
		if c.Help == "" {
			t.Errorf("counter %q has no help text", c.Name)
		}
		if c.Of(&k) != kv.Field(i).Addr().Interface().(*int64) {
			t.Errorf("counter %q does not address Kernel.%s", c.Name, f.Name)
		}
	}

	i := 0
	k.Each(func(name string, v int64) {
		if name != KernelCounters[i].Name || v != int64(i+1) {
			t.Errorf("Each visit %d = (%q, %d), want (%q, %d)", i, name, v, KernelCounters[i].Name, i+1)
		}
		i++
	})
	if i != typ.NumField() {
		t.Errorf("Each visited %d counters, want %d", i, typ.NumField())
	}

	sum := k
	sum.Add(k)
	sv := reflect.ValueOf(sum)
	for i := 0; i < typ.NumField(); i++ {
		if got := sv.Field(i).Int(); got != int64(2*(i+1)) {
			t.Errorf("Add: %s = %d, want %d", typ.Field(i).Name, got, 2*(i+1))
		}
	}
}

// PerOp sums every attempt's counters; a failed attempt's record carries
// none (Output.Finish cleared them), and its rows stay excluded.
func TestPerOpSumsKernelAcrossAttempts(t *testing.T) {
	r := NewRun()
	r.Record(WorkOrder{OpID: 1, OpName: "agg", Rows: 10, RowsOut: 2, Kernel: Kernel{AggFastRows: 10, AggPartials: 3}})
	r.Record(WorkOrder{OpID: 1, OpName: "agg", Rows: 99, Failed: true})
	r.Record(WorkOrder{OpID: 2, OpName: "sort", Rows: 5, Kernel: Kernel{SortRuns: 1}})
	op := r.PerOp()[0]
	if op.OpID != 1 || op.Rows != 10 || op.FailedAttempts != 1 || op.AggFastRows != 10 || op.AggPartials != 3 {
		t.Fatalf("op totals = %+v", op)
	}
	if k := sumKernels(r); k != (Kernel{AggFastRows: 10, AggPartials: 3, SortRuns: 1}) {
		t.Fatalf("run kernels = %+v", k)
	}
}

// sumKernels is the run-wide kernel total: PerOp's, summed.
func sumKernels(r *Run) Kernel {
	var k Kernel
	for _, op := range r.PerOp() {
		k.Add(op.Kernel)
	}
	return k
}
