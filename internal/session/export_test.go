package session

import "repro/internal/faults"

// withSpillFaults returns c with the spill tier's write and read sites
// consulting inj.
func (c Config) withSpillFaults(inj *faults.Injector) Config {
	c.spillFaults = inj
	return c
}
