// Command dapple-trace renders schedule timelines for a planned model: an
// ASCII Gantt chart per scheduling policy, the per-stage memory curves of
// Fig. 3(c), and optional Chrome trace JSON. Planning runs through the
// engine API, so -strategy selects any planning strategy.
//
// Usage:
//
//	dapple-trace -model GNMT-16 -config A -m 8
//	dapple-trace -model BERT-48 -config B -policies gpipe,pa,pb -out trace
//	dapple-trace -model GNMT-16 -config B -strategy pipedream
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dapple"
	"dapple/internal/cliutil"
	"dapple/internal/stats"
	"dapple/internal/trace"
)

func main() {
	var (
		modelName = flag.String("model", "GNMT-16", "zoo model name")
		config    = flag.String("config", "A", cliutil.ConfigHelp)
		servers   = flag.Int("servers", 0, "server count (default: 2 for A, 16 for B/C)")
		strategy  = flag.String("strategy", "dapple", "planning strategy")
		m         = flag.Int("m", 0, "micro-batch count override")
		policies  = flag.String("policies", "gpipe,pa", "comma-separated: gpipe, pa, pb")
		width     = flag.Int("width", 110, "gantt width in columns")
		timeout   = flag.Duration("timeout", 0, "abort after this long (0 = no limit)")
		out       = flag.String("out", "", "write <out>.<policy>.json Chrome traces")
	)
	planFlags := cliutil.RegisterPlanFlags()
	profFlags := cliutil.RegisterProfileFlags()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	mod := dapple.ModelByName(*modelName)
	if mod == nil {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *modelName)
		os.Exit(1)
	}
	c, err := cliutil.PickConfig(*config, *servers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	eng, err := dapple.NewEngine(
		dapple.WithCluster(c),
		dapple.WithStrategy(*strategy),
		dapple.WithPlanOptions(planFlags.Apply(dapple.PlanOptions{})),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx, cancel := cliutil.RootContext(*timeout)
	defer cancel()

	pr, err := eng.Plan(ctx, mod)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("plan: %v\n\n", pr)

	for _, name := range strings.Split(*policies, ",") {
		pol, err := cliutil.ParsePolicy(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := eng.Simulate(ctx, pr.Plan, dapple.ScheduleOptions{
			Policy: pol, M: *m, Recompute: pr.NeedsRecompute, MemLimit: -1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("--- %v: %s/iter, avg peak %s ---\n",
			pol, stats.Seconds(res.IterTime), stats.BytesF(res.AvgPeakMem))
		fmt.Print(trace.Gantt(res.Sim, *width))
		for i := range pr.Plan.Stages {
			curve, peak := trace.MemCurve(res.MemTrace(i), res.IterTime, *width)
			fmt.Printf("stage%d mem (peak %9s) %s\n", i, stats.Bytes(peak), curve)
		}
		fmt.Println()
		if *out != "" {
			path := fmt.Sprintf("%s.%v.json", *out, pol)
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := trace.WriteChrome(f, res.Sim); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}
