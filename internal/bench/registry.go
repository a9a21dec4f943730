package bench

import "fmt"

// Experiment is a runnable reproduction of one paper figure/table.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

// Experiments indexes every reproduction by figure/table ID.
var Experiments = []Experiment{
	{"fig1", "Cloud storage comparison", Fig1},
	{"fig3", "Resource usage of Prometheus tsdb", Fig3},
	{"fig4", "tsdb with LevelDB as storage", Fig4},
	{"fig13", "End-to-end evaluation vs Cortex", Fig13},
	{"fig14", "Storage-engine evaluation (DevOps)", Fig14},
	{"fig15", "Big DevOps timeseries", Fig15},
	{"fig16", "Memory usage monitoring", Fig16},
	{"fig17", "Evaluation with only EBS", Fig17},
	{"fig18a", "Different EBS usage constraints", Fig18a},
	{"fig18b", "Different amounts of out-of-order data", Fig18b},
	{"fig19", "Dynamic size control", Fig19},
	{"tab3", "Index and data size", Table3},
	{"abl-chunk", "Ablation: in-memory chunk size", AblChunkSize},
	{"abl-patch", "Ablation: L2 patch threshold", AblPatchThreshold},
	{"abl-onelevel", "Ablation: one slow level vs leveled LSM", AblOneLevelSlow},
	{"compact", "Serial vs parallel compaction throughput", CompactParallel},
}

// IDs returns every registered experiment ID in registry order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
}
