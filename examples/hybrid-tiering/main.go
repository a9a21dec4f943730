// Hybrid tiering under a fast-storage budget: the elastic time-partitioned
// LSM-tree keeps recent data on the fast (block) tier and ships older
// partitions to the slow (object) tier, halving/doubling its partition
// lengths to keep the fast-tier footprint at a configured budget
// (Algorithm 1, Figure 19).
//
//	go run ./examples/hybrid-tiering
package main

import (
	"fmt"
	"log"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/labels"
	"timeunion/internal/lsm"
)

func main() {
	fast := cloud.NewMemStore(cloud.TierBlock, cloud.EBSModel(0))
	slow := cloud.NewMemStore(cloud.TierObject, cloud.S3Model(0))
	db, err := core.Open(core.Options{
		Fast:              fast,
		Slow:              slow,
		MemTableSize:      32 << 10,
		L0PartitionLength: 30 * 60 * 1000,
		L2PartitionLength: 2 * 60 * 60 * 1000,
		FastLimit:         96 << 10, // the fast-tier budget; > 0 runs Algorithm 1
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	tree := db.ChunkStoreRef().(*lsm.LSM)

	const series = 150
	ids := make([]uint64, series)
	for i := range ids {
		ids[i], err = db.Append(labels.FromStrings(
			"metric", "requests", "service", fmt.Sprintf("svc-%02d", i)), 0, 0)
		if err != nil {
			log.Fatal(err)
		}
	}

	const hour = 3_600_000
	report := func(phase string) {
		if err := db.Flush(); err != nil {
			log.Fatal(err)
		}
		r1, r2 := tree.PartitionLengths()
		fmt.Printf("%-22s R1=%3dmin R2=%3dmin  fast=%7dB (budget %dB)  slow=%8dB  parts=%v\n",
			phase, r1/60000, r2/60000, tree.FastUsage(), 96<<10, slow.TotalBytes(), tree.NumPartitions())
	}

	// Phase 1: dense 10-second data pressures the fast tier; the
	// controller halves partition lengths so less data stays fast.
	t := int64(0)
	for ; t <= 6*hour; t += 10_000 {
		for i, id := range ids {
			if err := db.AppendFast(id, t+1, float64(i)+float64(t%100)); err != nil {
				log.Fatal(err)
			}
		}
	}
	report("dense 10s:")

	// Phase 2: sparse 2-minute data underuses the budget; partition
	// lengths grow back so more recent data stays on the fast tier.
	for ; t <= 18*hour; t += 120_000 {
		for i, id := range ids {
			if err := db.AppendFast(id, t+1, float64(i)); err != nil {
				log.Fatal(err)
			}
		}
	}
	report("sparse 2min:")

	// Phase 3: dense again.
	for ; t <= 24*hour; t += 10_000 {
		for i, id := range ids {
			if err := db.AppendFast(id, t+1, float64(i)); err != nil {
				log.Fatal(err)
			}
		}
	}
	report("dense 10s again:")

	st := tree.Stats()
	fmt.Printf("\nresizes: %d shrinks, %d grows; slow-tier uploads: %d compactions\n",
		st.ResizeShrinks, st.ResizeGrows, st.CompactionsL1L2)
	fmt.Printf("monthly storage bill estimate: $%.4f\n",
		cloud.MonthlyCostUSD(fast.TotalBytes(), slow.TotalBytes(), db.Stats().Memory.Total()))
}
