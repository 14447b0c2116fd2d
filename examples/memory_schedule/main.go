// Memory & scheduling deep-dive (the Fig. 3 / Table VI scenario): run the
// same 2-stage BERT-48 pipeline under GPipe and DAPPLE schedules across
// micro-batch counts and watch activation memory — GPipe's residency grows
// O(M) until it overflows the 16 GB device, DAPPLE's stays flat at its
// warmup depth, and re-computation trades ~20% backward time for the rest.
// The pipeline comes from the "gpipe" strategy (even block partition, one
// stage per device) via the Engine API.
package main

import (
	"context"
	"fmt"
	"log"

	"dapple"
)

func main() {
	ctx := context.Background()
	m := dapple.ModelByName("BERT-48")

	// Two single-V100 servers, 25 Gbps: the gpipe strategy splits the model
	// into a 2-stage straight pipeline, exactly like torchgpipe would.
	eng, err := dapple.NewEngine(
		dapple.WithCluster(dapple.ConfigB(2)),
		dapple.WithStrategy("gpipe"),
		dapple.WithPlanOptions(dapple.PlanOptions{GBS: 32, SkipMemCheck: true}),
	)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := eng.Plan(ctx, m)
	if err != nil {
		log.Fatal(err)
	}
	basePlan := pr.Plan
	fmt.Printf("pipeline: %v on %v\n\n", basePlan, eng.Cluster())

	type variant struct {
		name   string
		policy dapple.ScheduleOptions
	}
	variants := []variant{
		{"GPipe", dapple.ScheduleOptions{Policy: dapple.GPipeSchedule}},
		{"GPipe+recompute", dapple.ScheduleOptions{Policy: dapple.GPipeSchedule, Recompute: true}},
		{"DAPPLE", dapple.ScheduleOptions{Policy: dapple.DapplePA}},
		{"DAPPLE+recompute", dapple.ScheduleOptions{Policy: dapple.DapplePA, Recompute: true}},
	}

	fmt.Printf("%-18s %4s  %12s  %12s  %s\n", "schedule", "M", "samples/s", "avg peak", "status")
	for _, v := range variants {
		for _, M := range []int{2, 8, 16, 32} {
			opts := v.policy
			opts.M = M
			res, err := eng.Simulate(ctx, basePlan, opts)
			if err != nil {
				log.Fatal(err)
			}
			status := "ok"
			if res.OOM {
				status = fmt.Sprintf("OOM (stage %d)", res.OOMStage)
			}
			fmt.Printf("%-18s %4d  %12.2f  %9.2f GiB  %s\n",
				v.name, M, res.Throughput(), res.AvgPeakMem/(1<<30), status)
		}
	}

	// Visualize why: memory-over-time for both schedules at M=8.
	for _, v := range variants[:3] {
		opts := v.policy
		opts.M = 8
		opts.MemLimit = -1
		res, err := eng.Simulate(ctx, basePlan, opts)
		if err != nil {
			log.Fatal(err)
		}
		curve, peak := dapple.MemoryCurve(res, 0, 100)
		fmt.Printf("\n%s stage-0 memory over one iteration (peak %.2f GiB):\n%s\n",
			v.name, float64(peak)/(1<<30), curve)
	}
}
