package bench

import "fmt"

// Experiment pairs an experiment ID with its runner.
type Experiment struct {
	ID    string
	Paper string // the paper artifact this regenerates
	Run   func(*Harness) (*Report, error)
}

// Experiments lists every runner, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"FIG2", "Fig. 2 (schedule shapes vs UoT)", (*Harness).Fig2Schedules},
		{"FIG3", "Fig. 3 (operator time distribution)", (*Harness).Fig3OperatorBreakdown},
		{"EQ1", "Table I / Eq. 1 (analytical ratio)", (*Harness).Eq1RatioSweep},
		{"SEC5C", "Section V-C (persistent store)", (*Harness).Sec5CPersistentStore},
		{"TAB2", "Table II (memory footprint)", (*Harness).Tab2MemoryFootprint},
		{"TAB3", "Table III (lineitem sel/proj)", (*Harness).Tab3Lineitem},
		{"TAB4", "Table IV (orders sel/proj)", (*Harness).Tab4Orders},
		{"SEC6C", "Section VI-C (LIP pruning)", (*Harness).Sec6CLIP},
		{"FIG5", "Fig. 5 (consumer per-task time)", (*Harness).Fig5ProbeTaskTimes},
		{"FIG6", "Fig. 6 (operator-chain time)", (*Harness).Fig6ChainTimes},
		{"FIG7", "Fig. 7 (query times, column store)", (*Harness).Fig7QueryTimes},
		{"FIG8", "Fig. 8 (query times, row store)", (*Harness).Fig8RowStore},
		{"FIG9", "Fig. 9 (probe scalability)", (*Harness).Fig9Scalability},
		{"FIG10", "Fig. 10 (scalability x block size x UoT)", (*Harness).Fig10ScalabilityInteraction},
		{"TAB6", "Table VI (hardware prefetching)", (*Harness).Tab6Prefetching},
		{"FIG11", "Fig. 11 (MonetDB-style comparison)", (*Harness).Fig11MonetComparison},
		{"SEC6B", "Section VI-B (SSB small hash tables)", (*Harness).Sec6BSSBFootprint},
		{"ABL-UOT", "ablation: full UoT spectrum sweep", (*Harness).AblationUoTSweep},
		{"ABL-BLOCK", "ablation: block-size sweep", (*Harness).AblationBlockSize},
		{"CHAOS", "robustness: seeded fault injection vs fault-free results", (*Harness).Chaos},
		{"CCHAOS", "robustness: concurrent serving under seeded fault injection", (*Harness).ConcurrentChaos},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
