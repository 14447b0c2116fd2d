// Command dapple-bench regenerates the paper's evaluation tables and figures
// from the reproduction's workload generators, planner and schedule
// simulator. The full sweep takes ~30 s; every generator threads the
// command's context, so -timeout bounds it and ctrl-C stops it promptly.
// The real training runtime is measured by the benchmark/ harness instead.
//
// Usage:
//
//	dapple-bench -exp all          # every table and figure (§VI)
//	dapple-bench -exp table5       # one experiment
//	dapple-bench -list             # available experiment ids
//	dapple-bench -exp fig12 -quick # trimmed sweeps
//	dapple-bench -exp all -timeout 20s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dapple/internal/cliutil"
	"dapple/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (tableN, figN) or 'all'")
	quick := flag.Bool("quick", false, "trim sweeps for a fast pass")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
	list := flag.Bool("list", false, "list experiment ids")
	planFlags := cliutil.RegisterPlanFlags()
	profFlags := cliutil.RegisterProfileFlags()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, g := range experiments.All() {
			fmt.Printf("%-8s %s\n", g.ID, g.Name)
		}
		return
	}

	ctx, cancel := cliutil.RootContext(*timeout)
	defer cancel()

	opts := experiments.Options{Quick: *quick, Workers: planFlags.Workers, NoPrune: planFlags.NoPrune}
	run := func(g experiments.Generator) {
		start := time.Now()
		rep := g.Run(ctx, opts)
		fmt.Println(rep)
		fmt.Printf("(%s generated in %.1fs)\n\n", g.ID, time.Since(start).Seconds())
		// A truncated report is a failure for scripts regenerating the
		// paper's tables: exit non-zero rather than shipping partial data.
		// (A deadline firing just after a complete report is not a failure.)
		if rep.Truncated() {
			fmt.Fprintf(os.Stderr, "stopped: %v\n", ctx.Err())
			os.Exit(1)
		}
	}

	if *exp == "all" {
		for _, g := range experiments.All() {
			run(g)
		}
		return
	}
	g := experiments.ByID(*exp)
	if g == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(1)
	}
	run(*g)
}
