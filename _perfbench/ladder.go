package main

import (
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/ekf"
	"repro/internal/mission"
	"repro/internal/reconstruct"
	"repro/internal/recovery"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// The layer ladder: layers the decorators cannot reach from outside the
// pipeline (EKF, vehicle dynamics, checkpointing, reconstruction, LQR
// recovery, the DARE solves) are timed by direct calls to their public
// functions. The inputs are the ticks the traced run captured from the
// workload's own missions.

const ladderDT = 0.01

// ladderResult is one profile's ladder timings in µs per call.
type ladderResult struct {
	quad             bool
	step             float64
	predict, correct float64
	record           float64
	rollPerRecord    float64
	recoveryUpdate   float64
	dareMS           float64
}

// perCall times fn over n calls and returns µs per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return us(time.Since(t0)) / float64(n)
}

func ladderFor(p vehicle.Profile, samples []sample) (ladderResult, error) {
	lr := ladderResult{quad: p.IsQuad()}
	n := len(samples)
	var hover vehicle.Input
	if p.IsQuad() {
		hover.Thrust = p.Quad.HoverThrust()
	}
	const reps = 5
	calls := n * reps

	lr.step = perCall(calls, func(i int) {
		s := samples[i%n].Tick.Truth
		if p.IsQuad() {
			s = p.Quad.Step(s, hover, vehicle.Wind{}, ladderDT)
		} else {
			s = p.Rover.Step(s, hover, vehicle.Wind{}, ladderDT)
		}
		sinkState = s
	})

	// The pipeline's filter runs on the shared covariance schedule while
	// every sensor is trusted; the ladder does the same.
	all := sensors.NewTypeSet(sensors.AllTypes()...)
	f := ekf.New(p)
	f.AttachSchedule(ekf.NewSchedule(p, ladderDT))
	f.Init(samples[0].Tick.Truth)
	var predict, correct time.Duration
	for i := 0; i < calls; i++ {
		rd := samples[i%n].Reading
		t0 := time.Now()
		f.PredictHybrid(hover, rd, all, ladderDT)
		t1 := time.Now()
		if err := f.Correct(rd, all); err != nil {
			return lr, err
		}
		correct += time.Since(t1)
		predict += t1.Sub(t0)
	}
	lr.predict = us(predict) / float64(calls)
	lr.correct = us(correct) / float64(calls)

	// Checkpoint recording over a window the samples overfill, then
	// roll-forward from the latest trusted anchor.
	rec := checkpoint.NewRecorder(samples[n-1].Tick.T / 3)
	lr.record = perCall(n, func(i int) {
		s := samples[i]
		rec.Record(checkpoint.Record{T: s.Tick.T, PS: s.Reading, Est: s.Tick.Truth, Input: hover})
	})
	rc := reconstruct.New(p, ladderDT)
	none := sensors.NewTypeSet()
	var replayed int
	roll := perCall(reps, func(int) {
		_, st, err := rc.RollForward(rec, none)
		if err == nil {
			replayed += st.Records
		}
	})
	if replayed > 0 {
		lr.rollPerRecord = roll * reps / float64(replayed)
	}

	// Recovery control along the captured trajectory toward a waypoint
	// 20 m ahead: rovers re-solve their DARE whenever the heading or the
	// speed has moved since the last solve.
	lqr, err := recovery.NewLQR(p, ladderDT)
	if err != nil {
		return lr, err
	}
	lr.recoveryUpdate = perCall(calls, func(i int) {
		s := samples[i%n].Tick.Truth
		target := mission.Waypoint{X: s.X + 20*math.Cos(s.Yaw), Y: s.Y + 20*math.Sin(s.Yaw), Z: s.Z}
		sinkInput = lqr.Update(s, target, ladderDT)
	})

	// One DARE solve: the quad's hover gain, or a rover gain at a fresh
	// heading (a new controller solves on its first update).
	if p.IsQuad() {
		lr.dareMS = perCall(3, func(int) {
			if _, e := recovery.QuadGain(p, ladderDT); e != nil {
				err = e
			}
		}) / 1000
	} else {
		lr.dareMS = perCall(8, func(i int) {
			l, e := recovery.NewLQR(p, ladderDT)
			if e != nil {
				err = e
				return
			}
			s := samples[i%n].Tick.Truth
			s.Yaw = float64(i) * 0.7
			sinkInput = l.Update(s, mission.Waypoint{X: s.X + 20, Y: s.Y}, ladderDT)
		}) / 1000
	}
	return lr, err
}

var (
	sinkState vehicle.State
	sinkInput vehicle.Input
)

// runLadder times every captured profile and reports the per-layer
// metrics as the mean over the workload's profiles of each kind.
func runLadder(out *outcome, tr *tracer) error {
	tr.mu.Lock()
	captured := tr.captured
	tr.mu.Unlock()
	var quad, rover, all []ladderResult
	for _, name := range sortedKeys(captured) {
		samples := captured[name]
		if len(samples) < 10 {
			continue
		}
		p, err := vehicle.LookupProfile(vehicle.ProfileName(name))
		if err != nil {
			return err
		}
		lr, err := ladderFor(p, samples)
		if err != nil {
			return err
		}
		all = append(all, lr)
		if lr.quad {
			quad = append(quad, lr)
		} else {
			rover = append(rover, lr)
		}
	}
	mean := func(rs []ladderResult, f func(ladderResult) float64) float64 {
		if len(rs) == 0 {
			return 0
		}
		var s float64
		for _, r := range rs {
			s += f(r)
		}
		return s / float64(len(rs))
	}
	out.layer["vehicle.quad_step_us"] = mean(quad, func(r ladderResult) float64 { return r.step })
	out.layer["vehicle.rover_step_us"] = mean(rover, func(r ladderResult) float64 { return r.step })
	out.layer["mat.dare_quad_ms"] = mean(quad, func(r ladderResult) float64 { return r.dareMS })
	out.layer["mat.dare_rover_ms"] = mean(rover, func(r ladderResult) float64 { return r.dareMS })
	out.layer["ekf.predict_hybrid_us"] = mean(all, func(r ladderResult) float64 { return r.predict })
	out.layer["ekf.correct_us"] = mean(all, func(r ladderResult) float64 { return r.correct })
	out.layer["checkpoint.record_us"] = mean(all, func(r ladderResult) float64 { return r.record })
	out.layer["reconstruct.roll_forward_us"] = mean(all, func(r ladderResult) float64 { return r.rollPerRecord })
	out.layer["recovery.update_us"] = mean(all, func(r ladderResult) float64 { return r.recoveryUpdate })
	return nil
}

// attributeLayers reports how much of the traced missions' wall time the
// measured layers leave unexplained: decorator self times plus ladder
// cost × exact work count, against the summed mission spans.
func attributeLayers(out *outcome, tr *tracer) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	wall := us(tr.missions.total)
	if wall <= 0 {
		return
	}
	perTick := out.layer["ekf.predict_hybrid_us"] + out.layer["ekf.correct_us"] + out.layer["checkpoint.record_us"]
	attributed := us(tr.sample.total+tr.detect.total+tr.observe.total+tr.diagnose.total) +
		float64(tr.quadTicks)*(perTick+out.layer["vehicle.quad_step_us"]) +
		float64(tr.roverTicks)*(perTick+out.layer["vehicle.rover_step_us"]) +
		float64(tr.recoveryTicks)*out.layer["recovery.update_us"] +
		float64(tr.replayedRecords)*out.layer["reconstruct.roll_forward_us"]
	out.layer["layers.unattributed_pct"] = 100 * (wall - attributed) / wall
}
