package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dapple/internal/core"
	"dapple/internal/hardware"
	"dapple/internal/nn"
	"dapple/internal/train"
	"dapple/internal/transport"
)

// session is one real coordinator/worker session over 127.0.0.1: two
// train.Workers and a train.Coordinator, each on its own transport.TCP —
// three loopback connections, the protocol's minimum. The roles are
// goroutines of this process, driven closed-loop by the benchmark goroutine.
type session struct {
	mesh    [3]*transport.TCP // worker 0, worker 1, coordinator
	workers [2]*train.Worker
	served  chan error
	coord   *train.Coordinator

	handshakeS float64 // NewCoordinator alone
}

// guarded runs fn under the operation deadline. fn keeps running if the
// deadline passes; the caller tears its transports down to unblock it.
func guarded(what string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(opDeadline):
		return fmt.Errorf("%s exceeded the %v deadline", what, opDeadline)
	}
}

// openSession wires the mesh (rank 1 dials rank 0, the coordinator dials
// both), starts the workers and performs the NewCoordinator handshake.
// dieAt >= 0 scripts worker 1's death at that step.
func openSession(fx *fixture, master *nn.Network, dieAt int, opts ...train.SessionOption) (*session, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	s := &session{served: make(chan error, 2)}
	ok := false
	defer func() {
		if !ok {
			s.abandon()
		}
	}()
	for r := 0; r < 2; r++ {
		t, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.SetRank(r)
		s.mesh[r] = t
	}
	s.mesh[2] = transport.NewTCP()
	s.mesh[2].SetRank(2)
	for _, d := range [][2]int{{1, 0}, {2, 0}, {2, 1}} {
		if err := s.mesh[d[0]].Dial(ctx, d[1], s.mesh[d[1]].Addr()); err != nil {
			return nil, err
		}
	}
	if err := s.mesh[0].WaitPeers(ctx, []int{1, 2}); err != nil {
		return nil, err
	}
	if err := s.mesh[1].WaitPeers(ctx, []int{0, 2}); err != nil {
		return nil, err
	}
	for r := range s.workers {
		w := train.NewWorker(s.mesh[r], r)
		if r == 1 && dieAt >= 0 {
			w.SetDieAtStep(dieAt)
		}
		s.workers[r] = w
		go func() { s.served <- w.Serve(context.Background()) }()
	}
	opts = append(opts, train.WithStepTimeout(opDeadline), train.WithShutdownTimeout(opDeadline))
	t0 := time.Now()
	coord, err := train.NewCoordinator(ctx, s.mesh[2], fx.plan, master, fx.opt,
		fx.execOptions(true), fx.deviceRanks, len(s.workers), opts...)
	if err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	s.handshakeS = time.Since(t0).Seconds()
	s.coord, ok = coord, true
	return s, nil
}

// step runs one Coordinator.Step under the operation deadline.
func (s *session) step(micros []train.Batch) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	return s.coord.Step(ctx, micros)
}

// wireStats sums the traffic counters of all three transports.
func (s *session) wireStats() transport.Stats {
	var sum transport.Stats
	for _, t := range s.mesh {
		st := t.Stats()
		sum.BytesSent += st.BytesSent
		sum.FramesSent += st.FramesSent
	}
	return sum
}

// close ends the session: Coordinator.Close, every worker's Serve returning,
// then the worker transports. Each wait is under the deadline; on a miss the
// transports are torn down so nothing is left running.
func (s *session) close() error {
	err := guarded("Coordinator.Close", s.coord.Close)
	if err != nil {
		s.abandon()
	}
	for range s.workers {
		select {
		case werr := <-s.served:
			err = errors.Join(err, werr)
		case <-time.After(opDeadline):
			err = errors.Join(err, errors.New("worker never returned from Serve"))
		}
	}
	s.abandon()
	return err
}

// abandon closes every transport, which unblocks whatever still waits on one.
func (s *session) abandon() {
	for _, t := range s.mesh {
		if t != nil {
			t.Close()
		}
	}
}

// survivorPlan re-plans the sessionRecover shape onto rank 0 alone: its two
// devices as a plain 2-stage pipeline, as in TestSessionSurvivesWorkerDeath.
func survivorPlan(fx *fixture) train.ReplanFunc {
	return func(alive []int) (*core.Plan, []int, error) {
		if len(alive) != 1 || alive[0] != 0 {
			return nil, nil, fmt.Errorf("unexpected survivors %v", alive)
		}
		p := &core.Plan{
			Model: fx.plan.Model, Cluster: twoGPUServers(1),
			Stages: []core.Stage{
				{Lo: 0, Hi: 3, Devices: []hardware.DeviceID{0}},
				{Lo: 3, Hi: fx.plan.Model.NumLayers(), Devices: []hardware.DeviceID{1}},
			},
			GBS: fx.plan.GBS, MicroBatch: fx.plan.MicroBatch,
		}
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
		return p, []int{0, 0}, nil
	}
}
