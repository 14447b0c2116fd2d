package core

// Unit is one pipeline unit of the analytic latency model. The paper models
// cross-stage communication as first-class pipeline stages interleaved with
// computation stages (§IV-A), so S in the formulas counts both kinds. Unit
// 2i is stage i and unit 2i+1 the boundary after it.
type Unit struct {
	F    float64 // forward time of one micro-batch through this unit
	B    float64 // backward time of one micro-batch through this unit
	AR   float64 // gradient all-reduce time at iteration end (0 for comm units)
	Comm bool    // true for network-transmission units
}

// Phases breaks a pipeline iteration into the three phases of Fig. 4.
type Phases struct {
	Warmup float64 // Tw: start until the pivot stage's first micro-batch completes forward
	Steady float64 // Ts: (M-1) rounds of F_Q + B_Q at the pivot
	Ending float64 // Te: final backward drain plus the slowest all-reduce tail
	Pivot  int     // Q: index of the pivot unit
}

// Latency returns Tw + Ts + Te.
func (p Phases) Latency() float64 { return p.Warmup + p.Steady + p.Ending }

// Units expands a plan into its interleaved computation and communication
// units, the input of the latency model.
func (p *Plan) Units() []Unit {
	return p.appendUnits(make([]Unit, 0, 2*len(p.Stages)-1))
}

// appendUnits appends the plan's units to units.
func (p *Plan) appendUnits(units []Unit) []Unit {
	for i := range p.Stages {
		units = append(units, Unit{
			F:  p.StageFwdTime(i),
			B:  p.StageBwdTime(i),
			AR: p.StageAllReduceTime(i),
		})
		if i < len(p.Stages)-1 {
			t := p.CrossStageTime(i)
			units = append(units, Unit{
				F:    t,
				B:    t, // boundary gradient volume equals activation volume
				Comm: true,
			})
		}
	}
	return units
}

// PivotStage implements Eq. (3): starting from the last unit, walk toward the
// front and adopt stage s as pivot whenever its bubble-free steady time
// exceeds the current pivot's steady time plus the forward/backward costs
// separating them.
func PivotStage(units []Unit, m int) int {
	steady := func(s int) float64 { return float64(m-1) * (units[s].F + units[s].B) }
	q := len(units) - 1
	for s := len(units) - 2; s >= 0; s-- {
		sep := 0.0
		for a := s + 1; a < q; a++ {
			sep += units[a].F + units[a].B
		}
		if steady(s) > steady(q)+sep {
			q = s
		}
	}
	return q
}

// PipelineLatency evaluates the synchronous pipeline-latency objective of
// Eq. (1)-(2) for m micro-batches over the given units.
//
// Tw sums forward times up to and including the pivot; Ts is the pivot's
// bubble-free steady phase; Te is the maximum over stages of the stage's
// all-reduce tail offset by where its final backward lands relative to the
// pivot's (positive for stages before the pivot, which still await the last
// backward wave; negative for stages after it, which finished early).
func PipelineLatency(units []Unit, m int) Phases {
	if len(units) == 0 || m < 1 {
		return Phases{}
	}
	q := PivotStage(units, m)

	var tw float64
	for s := 0; s <= q; s++ {
		tw += units[s].F
	}
	ts := float64(m-1) * (units[q].F + units[q].B)

	var te float64
	for s := range units {
		var tail float64
		if s <= q {
			for a := s; a <= q; a++ {
				tail += units[a].B
			}
		} else {
			for a := q + 1; a <= s; a++ {
				tail -= units[a].B
			}
		}
		if t := units[s].AR + tail; t > te {
			te = t
		}
	}
	if te < 0 {
		te = 0
	}
	return Phases{Warmup: tw, Steady: ts, Ending: te, Pivot: q}
}

// Latency returns the analytic pipeline latency of the plan: Eq. (2) over
// the plan's units with its micro-batch count. Plans of up to 16 stages are
// scored without allocating.
func (p *Plan) Latency() float64 {
	var buf [31]Unit
	return PipelineLatency(p.appendUnits(buf[:0]), p.M()).Latency()
}

// Speedup returns the paper's training speedup metric for this plan: the
// single-device sequential time for the same global batch divided by the
// plan's latency.
func (p *Plan) Speedup() float64 {
	l := p.Latency()
	if l == 0 {
		return 0
	}
	return p.Model.SingleDeviceIterTime(p.GBS) / l
}

// BubbleFraction estimates the fraction of device time lost to pipeline
// bubbles at the pivot stage: 1 - M(F_Q+B_Q)/L for the analytic model.
func (p *Plan) BubbleFraction() float64 {
	units := p.Units()
	ph := PipelineLatency(units, p.M())
	l := ph.Latency()
	if l == 0 {
		return 0
	}
	busy := float64(p.M()) * (units[ph.Pivot].F + units[ph.Pivot].B)
	frac := 1 - busy/l
	if frac < 0 {
		return 0
	}
	return frac
}
