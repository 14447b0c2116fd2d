// Command dapple-worker hosts one rank of a multi-process DAPPLE training
// session: the stage replicas whose devices the coordinator's placement maps
// to this rank. It listens for mesh connections, dials every lower-ranked
// worker, then serves the coordinator protocol — manifest, weight broadcast,
// gated training steps — until shutdown.
//
// Usage (rank r dials the r lower-ranked workers, in rank order):
//
//	dapple-worker -rank 0 -listen 127.0.0.1:7700
//	dapple-worker -rank 1 -listen 127.0.0.1:7701 -peers 127.0.0.1:7700
//
// then point the coordinator at the workers:
//
//	dapple -execute -exec-workers 127.0.0.1:7700,127.0.0.1:7701 ...
//
// A failure has one path: the worker's transport downs only the dead peer,
// and the worker reports a failed step with the ranks it saw die and waits
// for the coordinator's verdict. A coordinator running with fault tolerance
// re-plans onto the survivors and the worker rebuilds; otherwise it aborts
// the session, and the worker exits non-zero. The manifest carries the
// session's heartbeat settings. -die-at-step scripts this worker's death at
// a given step for chaos and recovery testing.
//
// With -join the worker instead joins a RUNNING elastic session: it dials
// the coordinator's listen address, runs the membership handshake (protocol
// version and manifest-hash checks), is granted a fresh rank, dials the
// granted peer mesh, and receives the live training state as a checkpoint
// stream. -rank and -peers are rejected with -join; the session assigns
// both:
//
//	dapple-worker -join 127.0.0.1:7800
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"dapple/internal/train"
	"dapple/internal/transport"
)

func main() {
	var (
		rank    = flag.Int("rank", -1, "this worker's rank (0-based, dense)")
		listen  = flag.String("listen", "127.0.0.1:0", "address to accept mesh connections on")
		peers   = flag.String("peers", "", "comma-separated addresses of workers 0..rank-1, in rank order")
		timeout = flag.Duration("dial-timeout", 30*time.Second, "time limit for connecting the worker mesh")
		dieAt   = flag.Int("die-at-step", -1, "fault injection: exit the moment the coordinator announces this step (negative disables)")
		join    = flag.String("join", "", "join the running elastic session whose coordinator listens at this address (-rank/-peers must be unset; the session grants both)")
	)
	flag.Parse()
	if *join != "" {
		if *rank >= 0 || *peers != "" {
			fatalf("dapple-worker: -join assigns rank and peers from the session; drop -rank/-peers")
		}
		runJoin(*join, *listen, *timeout, *dieAt)
		return
	}
	if *rank < 0 {
		fatalf("dapple-worker: -rank is required")
	}
	var peerAddrs []string
	if *peers != "" {
		peerAddrs = strings.Split(*peers, ",")
	}
	if len(peerAddrs) != *rank {
		fatalf("dapple-worker: rank %d needs %d -peers addresses, got %d", *rank, *rank, len(peerAddrs))
	}

	t, err := transport.ListenTCP(*listen)
	if err != nil {
		fatalf("dapple-worker: %v", err)
	}
	defer t.Close()
	t.SetRank(*rank)
	// The coordinator (and the smoke harness) scrape this line for the
	// resolved address, so port 0 works.
	fmt.Printf("dapple-worker: rank %d listening on %s\n", *rank, t.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	dialCtx, dialCancel := context.WithTimeout(ctx, *timeout)
	defer dialCancel()
	// Retrying dial makes bring-up order-free: all workers (and the
	// coordinator) may launch simultaneously within the dial timeout.
	for q, addr := range peerAddrs {
		if err := t.DialRetry(dialCtx, q, addr); err != nil {
			fatalf("dapple-worker: dial rank %d at %s: %v", q, addr, err)
		}
	}

	w := train.NewWorker(t, *rank)
	if *dieAt >= 0 {
		w.SetDieAtStep(*dieAt)
	}
	// Serve holds the mesh open through shutdown until the coordinator —
	// who has every worker's ack — tears the session down, so peers still
	// draining their own shutdown are never EOF'd early.
	if err := w.Serve(ctx); err != nil {
		fatalf("dapple-worker: rank %d: %v", *rank, err)
	}
	fmt.Printf("dapple-worker: rank %d shut down cleanly\n", *rank)
}

// runJoin is the elastic entry point: knock on the coordinator, run the
// membership handshake, then serve the session exactly like a seed worker.
func runJoin(coordAddr, listen string, timeout time.Duration, dieAt int) {
	t, err := transport.ListenTCP(listen)
	if err != nil {
		fatalf("dapple-worker: %v", err)
	}
	defer t.Close()
	fmt.Printf("dapple-worker: joiner listening on %s, knocking on %s\n", t.Addr(), coordAddr)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	joinCtx, joinCancel := context.WithTimeout(ctx, timeout)
	defer joinCancel()
	w, err := train.JoinSession(joinCtx, t, coordAddr)
	if err != nil {
		fatalf("dapple-worker: join %s: %v", coordAddr, err)
	}
	// The smoke harness scrapes this line to confirm admission.
	fmt.Printf("dapple-worker: admitted as rank %d\n", w.Rank())
	if dieAt >= 0 {
		w.SetDieAtStep(dieAt)
	}
	if err := w.Serve(ctx); err != nil {
		fatalf("dapple-worker: rank %d: %v", w.Rank(), err)
	}
	fmt.Printf("dapple-worker: rank %d shut down cleanly\n", w.Rank())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
