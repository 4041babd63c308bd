package ekf

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// This file pins the filter's correctness contract: the zero-allocation,
// block-diagonal Predict/Correct cycle must produce bit-identical states
// and covariances to the dense allocating formulas. The reference
// implementations below are verbatim transcriptions of the dense code,
// built on the allocating mat API.

// kinematicJacobian builds the dense position←velocity, angle←rate
// transition Jacobian at period dt.
func kinematicJacobian(dt float64) *mat.Mat {
	f := mat.Identity(nx)
	for i := 0; i < 3; i++ {
		f.Set(i, 3+i, dt)   // pos ← vel
		f.Set(6+i, 9+i, dt) // angle ← rate
	}
	return f
}

// refPropagate is the allocating covariance propagation:
// P ← sym(F·P·Fᵀ + Q·dt).
func refPropagate(p, q, fkin *mat.Mat, dt float64) *mat.Mat {
	return fkin.Mul(p).Mul(fkin.T()).Add(q.Scale(dt)).Symmetrize()
}

// refCorrect is the allocating correction step, operating on an external
// (p, x) pair with the filter's observation channels.
func refCorrect(f *Filter, p *mat.Mat, x vehicle.State, meas sensors.PhysState, active sensors.TypeSet) (*mat.Mat, vehicle.State, error) {
	var rows []obsChannel
	var z []float64
	for _, ch := range f.obs {
		if !active.Has(ch.sensor) {
			continue
		}
		if ch.sensor == sensors.Gyro && !f.isQuad {
			continue
		}
		rows = append(rows, ch)
		if ch.sensor == sensors.Mag {
			z = append(z, MagYaw(meas))
		} else {
			z = append(z, measChannel(meas, ch))
		}
	}
	if len(rows) == 0 {
		return p, x, nil
	}
	m := len(rows)
	h := mat.New(m, nx)
	rdiag := make([]float64, m)
	for i, ch := range rows {
		h.Set(i, ch.state, 1)
		rdiag[i] = ch.noise * ch.noise
	}
	xvec := mat.Vec(x.Vec())
	innov := mat.NewVec(m)
	for i, ch := range rows {
		d := z[i] - xvec[ch.state]
		if ch.state >= 6 && ch.state <= 8 {
			d = vehicle.WrapAngle(d)
		}
		innov[i] = d
	}
	ph := p.Mul(h.T())
	s := h.Mul(ph).Add(mat.Diag(rdiag))
	const gateSigma = 5.0
	for i := range innov {
		gate := gateSigma * math.Sqrt(s.At(i, i))
		innov[i] = vehicle.Clamp(innov[i], -gate, gate)
	}
	kt, err := mat.SolveMat(s.T(), ph.T())
	if err != nil {
		return nil, x, err
	}
	k := kt.T()
	dx := k.MulVec(innov)
	xvec = xvec.Add(dx)
	out := vehicle.StateFromVec(xvec)
	out.Roll = vehicle.WrapAngle(out.Roll)
	out.Pitch = vehicle.WrapAngle(out.Pitch)
	out.Yaw = vehicle.WrapAngle(out.Yaw)
	pOut := mat.Identity(nx).Sub(k.Mul(h)).Mul(p).Symmetrize()
	return pOut, out, nil
}

// bitsEqualMat asserts element-wise bit identity.
func bitsEqualMat(t *testing.T, step int, what string, got, want *mat.Mat) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("step %d: %s diverges at element %d: %g != %g",
				step, what, i, got.Data[i], want.Data[i])
		}
	}
}

// bitsEqualState asserts bit identity of two states.
func bitsEqualState(t *testing.T, step int, got, want vehicle.State) {
	t.Helper()
	gv, wv := got.Vec(), want.Vec()
	for i := range wv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("step %d: state diverges at component %d: %g != %g",
				step, i, gv[i], wv[i])
		}
	}
}

// offBlockZero asserts the block invariant the covariance kernels rely
// on: every entry of p outside the six 2×2 blocks is exactly +0.
func offBlockZero(t *testing.T, step int, what string, p *mat.Mat) {
	t.Helper()
	for i := 0; i < nx; i++ {
		bi, _ := blockOf(i)
		for j := 0; j < nx; j++ {
			if bj, _ := blockOf(j); bi != bj && math.Float64bits(p.At(i, j)) != 0 {
				t.Fatalf("step %d: %s has off-block entry (%d,%d) = %g, want +0",
					step, what, i, j, p.At(i, j))
			}
		}
	}
}

// correctingTypes are the sensor types that supply correction rows.
var correctingTypes = []sensors.Type{sensors.GPS, sensors.Baro, sensors.Mag, sensors.Gyro}

// subset returns the active set for bit pattern bits over
// correctingTypes, with every other sensor type active, and a name for
// it ("none" when no correcting sensor is active).
func subset(bits int) (sensors.TypeSet, string) {
	active := sensors.NewTypeSet(sensors.AllTypes()...)
	var names []string
	for i, ty := range correctingTypes {
		if bits&(1<<i) == 0 {
			delete(active, ty)
		} else {
			names = append(names, ty.String())
		}
	}
	if len(names) == 0 {
		return active, "none"
	}
	return active, strings.Join(names, "+")
}

// TestWorkspaceMatchesAllocatingReference drives the filter through
// equivCycles Predict/Correct cycles for every subset of the correcting
// sensors, plus one run that rotates through the subsets, on a quad and a
// rover. The runs outlast the quad's covariance fixpoint and let the
// rover's unobserved blocks grow, and dt changes mid-mission: F stays
// keyed to the first dt while Q·dt follows the current one. State and
// covariance must stay bit-identical to the dense allocating reference
// after every step, and every off-block covariance entry must stay +0.
func TestWorkspaceMatchesAllocatingReference(t *testing.T) {
	profiles := []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover}
	for _, id := range profiles {
		prof := vehicle.MustProfile(id)
		t.Run(string(prof.Name), func(t *testing.T) {
			// bits = -1 rotates through every subset, seven cycles each.
			for bits := -1; bits < 1<<len(correctingTypes); bits++ {
				name := "rotating"
				if bits >= 0 {
					_, name = subset(bits)
				}
				t.Run(name, func(t *testing.T) { equivRun(t, prof, bits) })
			}
		})
	}
}

// equivRun is one TestWorkspaceMatchesAllocatingReference run over the
// correcting-sensor subset bits (-1: rotate through all of them).
func equivRun(t *testing.T, prof vehicle.Profile, bits int) {
	const (
		equivCycles = 2000
		dtChangeAt  = 1200
		dt0, dt1    = 0.01, 0.02
	)
	f := New(prof)
	start := vehicle.State{Z: 10}
	f.Init(start)

	refP := mat.Identity(nx).Scale(0.1)
	refX := start
	fkin := kinematicJacobian(dt0)

	rng := rand.New(rand.NewSource(int64(7 + bits)))
	u := vehicle.Input{Thrust: 9.0}
	for i := 0; i < equivCycles; i++ {
		dt := dt0
		if i >= dtChangeAt {
			dt = dt1
		}
		// A wandering truth state drives non-trivial innovations.
		truth := vehicle.State{
			X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: 10 + rng.NormFloat64(),
			VX: rng.NormFloat64(), VY: rng.NormFloat64(), VZ: rng.NormFloat64(),
			Roll: rng.NormFloat64() * 0.1, Pitch: rng.NormFloat64() * 0.1,
			Yaw: rng.NormFloat64() * 0.3,
		}
		meas := sensors.TruePhysState(truth, [3]float64{}, sensors.BodyField(truth.Yaw))

		f.Predict(u, dt)
		refP = refPropagate(refP, f.q, fkin, dt)
		refX = f.step(refX, u, dt)
		bitsEqualMat(t, i, "covariance after Predict", f.p, refP)
		bitsEqualState(t, i, f.x, refX)
		offBlockZero(t, i, "covariance after Predict", f.p)

		set := bits
		if set < 0 {
			set = i / 7 % (1 << len(correctingTypes))
		}
		active, _ := subset(set)
		if err := f.Correct(meas, active); err != nil {
			t.Fatalf("step %d: Correct: %v", i, err)
		}
		var err error
		refP, refX, err = refCorrect(f, refP, refX, meas, active)
		if err != nil {
			t.Fatalf("step %d: refCorrect: %v", i, err)
		}
		bitsEqualMat(t, i, "covariance after Correct", f.p, refP)
		bitsEqualState(t, i, f.x, refX)
		offBlockZero(t, i, "covariance after Correct", f.p)
	}
}

// TestInitResetsJacobianCache: the transition Jacobian is keyed to the
// first propagation's dt after Init — a later dt changes only Q·dt — and
// Init discards the key so the next mission's first dt takes effect.
func TestInitResetsJacobianCache(t *testing.T) {
	f := New(vehicle.MustProfile(vehicle.ArduCopter))
	p0 := mat.Identity(nx).Scale(0.1)
	f.Init(vehicle.State{Z: 10})
	f.Predict(vehicle.Input{}, 0.01)
	f.Predict(vehicle.Input{}, 0.02)
	kept := refPropagate(refPropagate(p0, f.q, kinematicJacobian(0.01), 0.01), f.q, kinematicJacobian(0.01), 0.02)
	rekeyed := refPropagate(refPropagate(p0, f.q, kinematicJacobian(0.01), 0.01), f.q, kinematicJacobian(0.02), 0.02)
	if bitsEqual(kept, rekeyed) {
		t.Fatal("test cannot tell a kept Jacobian from a rebuilt one")
	}
	bitsEqualMat(t, 1, "covariance after a mid-mission dt change", f.p, kept)

	f.Init(vehicle.State{Z: 10})
	f.Predict(vehicle.Input{}, 0.02)
	bitsEqualMat(t, 0, "covariance after re-Init at a new dt", f.p, refPropagate(p0, f.q, kinematicJacobian(0.02), 0.02))
}

// TestCovarianceInto: the non-allocating accessor matches the cloning one.
func TestCovarianceInto(t *testing.T) {
	f := New(vehicle.MustProfile(vehicle.ArduCopter))
	f.Init(vehicle.State{Z: 5})
	f.Predict(vehicle.Input{}, 0.01)
	dst := mat.New(nx, nx)
	f.CovarianceInto(dst)
	want := f.Covariance()
	for i := range want.Data {
		if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("CovarianceInto diverges from Covariance at %d", i)
		}
	}
	if n := testing.AllocsPerRun(50, func() { f.CovarianceInto(dst) }); n != 0 {
		t.Errorf("CovarianceInto allocates %v per run, want 0", n)
	}
}
