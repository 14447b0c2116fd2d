// Quickstart: plan and simulate BERT-48 on the paper's hierarchical config A
// (2 servers x 8 NVLink-connected V100s, 25 Gbps Ethernet) using the Engine
// API — the Fig. 1 workflow in ~40 lines. The Engine binds the cluster to a
// planning strategy and threads a context through the search.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dapple"
)

func main() {
	m := dapple.ModelByName("BERT-48")

	eng, err := dapple.NewEngine(
		dapple.WithCluster(dapple.ConfigA(2)),
		dapple.WithStrategy("dapple"), // the paper's planner; try "gpipe" or "pipedream"
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model:   %v\n", m)
	fmt.Printf("cluster: %v\n\n", eng.Cluster())

	// Long searches are deadline-bounded: the planner and the simulator both
	// stop promptly once the context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The Planner searches stage partitions, replication degrees and
	// topology-aware placements (Fresh/Append/Scatter First).
	pr, err := eng.Plan(ctx, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best plan: %v\n", pr)
	for i, s := range pr.Plan.Stages {
		fmt.Printf("  stage %d: layers [%d,%d) on %d device(s) %v\n",
			i, s.Lo, s.Hi, s.Replicas(), s.Devices)
	}

	// The Runtime executes the plan under the strategy's recommended
	// early-backward schedule and re-computation setting.
	res, err := eng.SimulatePlan(ctx, pr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\niteration: %.1f ms  (%.1f samples/s, %.1f%% bubbles)\n",
		res.IterTime*1e3, res.Throughput(), 100*res.BubbleFraction)
	fmt.Printf("memory:    avg peak %.1f GiB across devices (OOM: %v)\n",
		res.AvgPeakMem/(1<<30), res.OOM)

	fmt.Println("\nschedule timeline:")
	fmt.Print(dapple.Gantt(res, 110))
}
