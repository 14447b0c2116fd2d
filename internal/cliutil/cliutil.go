// Package cliutil holds the option-parsing helpers shared by the dapple
// command-line tools: cluster-config and schedule-policy parsing used to be
// re-implemented (with drifting defaults) in every command.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dapple/internal/hardware"
	"dapple/internal/planner"
	"dapple/internal/schedule"
)

// PickConfig resolves a Table III hardware config name (A, B or C, case
// insensitive) and a server count into a cluster. servers == 0 picks the
// paper's default scale for that config: 2 hierarchical servers for A, 16
// flat servers for B and C.
func PickConfig(name string, servers int) (hardware.Cluster, error) {
	switch strings.ToUpper(name) {
	case "A":
		if servers == 0 {
			servers = 2
		}
		return hardware.ConfigA(servers), nil
	case "B":
		if servers == 0 {
			servers = 16
		}
		return hardware.ConfigB(servers), nil
	case "C":
		if servers == 0 {
			servers = 16
		}
		return hardware.ConfigC(servers), nil
	}
	return hardware.Cluster{}, fmt.Errorf("unknown config %q (want A, B or C)", name)
}

// ConfigHelp is the -config flag usage string.
const ConfigHelp = "hardware config: A, B or C (Table III)"

// ParsePolicy resolves a schedule-policy flag value (pa, pb or gpipe, case
// insensitive).
func ParsePolicy(name string) (schedule.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "pa":
		return schedule.DapplePA, nil
	case "pb":
		return schedule.DapplePB, nil
	case "gpipe":
		return schedule.GPipe, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want pa, pb or gpipe)", name)
}

// PolicyHelp is the -policy flag usage string.
const PolicyHelp = "schedule policy: pa, pb or gpipe"

// PlanFlags holds the planner-search tuning flags every dapple command
// shares, so the flag names and defaults cannot drift between binaries.
type PlanFlags struct {
	// Workers is the -planner-workers value: goroutines fanned out over
	// first-stage split points (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// NoPrune is the -planner-no-prune value: disable branch-and-bound
	// pruning and run the exhaustive search.
	NoPrune bool
}

// RegisterPlanFlags registers the shared planner tuning flags on the default
// flag set and returns the struct the parsed values land in. Call before
// flag.Parse.
func RegisterPlanFlags() *PlanFlags {
	pf := &PlanFlags{}
	flag.IntVar(&pf.Workers, "planner-workers", 0,
		"parallel planner search workers (0 = GOMAXPROCS, 1 = sequential; plans are identical either way)")
	flag.BoolVar(&pf.NoPrune, "planner-no-prune", false,
		"disable branch-and-bound pruning (exhaustive, much slower search)")
	return pf
}

// Apply copies the parsed planner flags onto a search options value.
func (pf *PlanFlags) Apply(o planner.Options) planner.Options {
	o.Workers = pf.Workers
	o.NoPrune = pf.NoPrune
	return o
}

// RegisterSeedFlag registers the shared -seed flag on the default flag set
// and returns the destination of the parsed value. Call before flag.Parse.
// The seed drives synthetic-data generation and weight initialization in the
// commands and examples, so runs are reproducible end to end.
func RegisterSeedFlag() *int64 {
	return flag.Int64("seed", 42, "RNG seed for synthetic data and weight initialization (reproducible runs)")
}

// ProfileFlags holds the -cpuprofile/-memprofile values every dapple command
// shares, so performance work can capture pprof data from any binary without
// patching code.
type ProfileFlags struct {
	// CPUPath is the -cpuprofile value: the file receiving a CPU profile of
	// everything between Start and the returned stop function.
	CPUPath string
	// MemPath is the -memprofile value: the file receiving a heap profile
	// written (after a GC) by the stop function.
	MemPath string
}

// RegisterProfileFlags registers -cpuprofile and -memprofile on the default
// flag set and returns the struct the parsed values land in. Call before
// flag.Parse.
func RegisterProfileFlags() *ProfileFlags {
	pf := &ProfileFlags{}
	flag.StringVar(&pf.CPUPath, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&pf.MemPath, "memprofile", "", "write a heap profile to this file on exit")
	return pf
}

// Start begins CPU profiling when -cpuprofile was given. The returned stop
// function (never nil) ends the CPU profile and writes the heap profile when
// -memprofile was given; defer it around the measured work. Profiles are
// written only on clean exits — error paths that os.Exit skip them.
func (pf *ProfileFlags) Start() (func(), error) {
	var cpu *os.File
	if pf.CPUPath != "" {
		f, err := os.Create(pf.CPUPath)
		if err != nil {
			return func() {}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return func() {}, err
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if pf.MemPath != "" {
			f, err := os.Create(pf.MemPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// RootContext returns the context commands should thread into planning and
// simulation: cancelled on interrupt (ctrl-C), deadline-bounded when timeout
// is positive. The signal capture is released as soon as the context fires,
// so a second ctrl-C terminates the process immediately even while
// non-cancellable work drains to its next checkpoint.
func RootContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	cancel := stop
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		cancel = func() { tcancel(); stop() }
	}
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, cancel
}
