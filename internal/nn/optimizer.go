package nn

import (
	"fmt"
	"math"
)

// Optimizer updates parameters from accumulated gradients. Step consumes the
// gradients as-is (callers are responsible for averaging across micro-batches
// or replicas first) and zeroes them afterwards.
type Optimizer interface {
	Step(params []Param)
}

// OptState is a snapshot of an optimizer's internal state against a fixed
// parameter order: Step is the update counter (Adam's bias-correction t) and
// Slots[s][i] is per-parameter state slot s of the i-th parameter (Momentum
// keeps one slot, the velocity; Adam keeps two, the first and second
// moments). A slot vector's length always equals the parameter's element
// count, even when the optimizer has not touched the parameter yet.
type OptState struct {
	// Step is the optimizer's update counter.
	Step int
	// Slots holds the per-parameter state vectors, indexed [slot][param].
	Slots [][][]float64
}

// Stateful is implemented by optimizers whose update rule depends on
// accumulated per-parameter state. Checkpointing captures and restores that
// state so a resumed session continues the exact training trajectory instead
// of restarting momentum and moment estimates from zero.
type Stateful interface {
	// NumSlots returns how many state vectors the optimizer keeps per
	// parameter.
	NumSlots() int
	// CaptureState returns the optimizer's state for params, in order, as
	// views of its live slot vectors (fresh zero vectors for parameters it
	// has not touched yet). The views are valid until the optimizer's next
	// Step or RestoreState, which update them in place or replace them; a
	// caller that keeps the state past that copies it.
	CaptureState(params []Param) OptState
	// RestoreState overwrites the optimizer's state for params from a
	// snapshot with matching geometry.
	RestoreState(params []Param, st OptState) error
}

// captureSlots views one state map as a per-parameter slot, with zero
// vectors for parameters the optimizer has not touched yet.
func captureSlots(params []Param, m map[Param][]float64) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		v, ok := m[p]
		if !ok {
			v = make([]float64, len(p.W.Data))
		}
		out[i] = v
	}
	return out
}

// restoreSlots overwrites one state map from a captured slot.
func restoreSlots(params []Param, m map[Param][]float64, slot [][]float64) error {
	if len(slot) != len(params) {
		return fmt.Errorf("nn: optimizer state covers %d params, want %d", len(slot), len(params))
	}
	for i, p := range params {
		if len(slot[i]) != len(p.W.Data) {
			return fmt.Errorf("nn: optimizer state %d has %d elements, param has %d", i, len(slot[i]), len(p.W.Data))
		}
		v := make([]float64, len(slot[i]))
		copy(v, slot[i])
		m[p] = v
	}
	return nil
}

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float64
}

// Step implements Optimizer.
func (o SGD) Step(params []Param) {
	for _, p := range params {
		p.W.AXPY(-o.LR, p.G)
		p.G.Zero()
	}
}

// Momentum is SGD with classical momentum.
type Momentum struct {
	LR, Beta float64
	vel      map[Param][]float64
}

// NewMomentum returns a Momentum optimizer.
func NewMomentum(lr, beta float64) *Momentum {
	return &Momentum{LR: lr, Beta: beta, vel: map[Param][]float64{}}
}

// Step implements Optimizer.
func (o *Momentum) Step(params []Param) {
	for _, p := range params {
		v, ok := o.vel[p]
		if !ok {
			v = make([]float64, len(p.W.Data))
			o.vel[p] = v
		}
		for i := range v {
			v[i] = o.Beta*v[i] + p.G.Data[i]
			p.W.Data[i] -= o.LR * v[i]
		}
		p.G.Zero()
	}
}

// NumSlots implements Stateful: one velocity vector per parameter.
func (o *Momentum) NumSlots() int { return 1 }

// CaptureState implements Stateful.
func (o *Momentum) CaptureState(params []Param) OptState {
	return OptState{Slots: [][][]float64{captureSlots(params, o.vel)}}
}

// RestoreState implements Stateful.
func (o *Momentum) RestoreState(params []Param, st OptState) error {
	if len(st.Slots) != 1 {
		return fmt.Errorf("nn: momentum state has %d slots, want 1", len(st.Slots))
	}
	return restoreSlots(params, o.vel, st.Slots[0])
}

// Adam is the Adam optimizer (Kingma & Ba), the one the paper trains GNMT,
// BERT and XLNet with.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[Param][]float64
	v map[Param][]float64
}

// NewAdam returns Adam with the standard defaults and the given learning
// rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[Param][]float64{}, v: map[Param][]float64{},
	}
}

// NumSlots implements Stateful: first and second moment vectors.
func (a *Adam) NumSlots() int { return 2 }

// CaptureState implements Stateful.
func (a *Adam) CaptureState(params []Param) OptState {
	return OptState{
		Step:  a.t,
		Slots: [][][]float64{captureSlots(params, a.m), captureSlots(params, a.v)},
	}
}

// RestoreState implements Stateful.
func (a *Adam) RestoreState(params []Param, st OptState) error {
	if len(st.Slots) != 2 {
		return fmt.Errorf("nn: adam state has %d slots, want 2", len(st.Slots))
	}
	if err := restoreSlots(params, a.m, st.Slots[0]); err != nil {
		return err
	}
	if err := restoreSlots(params, a.v, st.Slots[1]); err != nil {
		return err
	}
	a.t = st.Step
	return nil
}

// Step implements Optimizer.
func (a *Adam) Step(params []Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.W.Data))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.W.Data))
		}
		v := a.v[p]
		for i, g := range p.G.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			p.W.Data[i] -= a.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.Eps)
		}
		p.G.Zero()
	}
}
