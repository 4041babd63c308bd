// Package ekf implements the Extended Kalman Filter state estimator of
// §2.1/Appendix A.2. The filter follows the onboard architecture of real
// autopilots: the inertial sensors (gyroscope, accelerometer) drive the
// prediction step (strapdown propagation), while GPS, barometer, and
// magnetometer provide corrections. This is what makes sensor deception
// attacks effective against the fused estimate — bias on any sensor type
// propagates into the state estimate, as the paper's attacks require.
//
// The filter supports masking individual sensor types, which is how the
// DeLorean framework isolates diagnosed sensors from the feedback control
// loop (Fig. 4): a masked inertial sensor's role in prediction is replaced
// by the dynamics model f(x, u); a masked correcting sensor simply stops
// correcting. It also exposes pure model prediction, the roll-forward
// primitive state reconstruction uses to replay dynamics from the last
// trustworthy checkpoint (§4.3).
package ekf

import (
	"fmt"
	"math"

	"repro/internal/floats"
	"repro/internal/mat"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// nx is the rigid-body state dimension.
const nx = 12

// StepFunc advances the model state by dt under input u. It abstracts the
// dynamics model so the filter can run on either the true vehicle
// parameters or the system-identified model (Appendix A.2 learns the model
// through system identification).
type StepFunc func(s vehicle.State, u vehicle.Input, dt float64) vehicle.State

// QuadStep returns a StepFunc for the given quadcopter model (no wind —
// the onboard model cannot observe wind; it is process noise).
func QuadStep(q vehicle.Quadcopter) StepFunc {
	return func(s vehicle.State, u vehicle.Input, dt float64) vehicle.State {
		return q.Step(s, u, vehicle.Wind{}, dt)
	}
}

// RoverStep returns a StepFunc for the given rover model.
func RoverStep(r vehicle.Rover) StepFunc {
	return func(s vehicle.State, u vehicle.Input, dt float64) vehicle.State {
		return r.Step(s, u, vehicle.Wind{}, dt)
	}
}

// StepForProfile returns the model step for a profile's vehicle class.
func StepForProfile(p vehicle.Profile) StepFunc {
	if p.IsQuad() {
		return QuadStep(p.Quad)
	}
	return RoverStep(p.Rover)
}

// obsChannel describes one correction row: which sensor supplies it, which
// rigid-body state index it observes, and its noise floor.
type obsChannel struct {
	sensor sensors.Type
	state  int
	noise  float64
}

// Filter is the EKF.
type Filter struct {
	step    StepFunc
	isQuad  bool
	x       vehicle.State
	p       *mat.Mat
	q       *mat.Mat
	obs     []obsChannel
	magYawN float64

	// sched, when non-nil, is the shared covariance/gain schedule this
	// filter consumes instead of running its own covariance recursion
	// (see schedule.go). schedIdx counts the completed shared
	// predict/correct cycles since Init; -1 means the filter runs (or has
	// fallen back to) the private recursion. predPending marks a shared
	// covariance propagation that has been skipped in Predict*/ and not
	// yet consumed by Correct.
	sched       *Schedule
	schedIdx    int
	predPending bool

	ws workspace
}

// The covariance is block-diagonal with six independent 2×2 blocks, one
// per (position, velocity) axis and one per (angle, rate) axis: block b
// pairs states blockBase[b] and blockBase[b]+3. The structure is exact,
// not an approximation. The transition Jacobian couples only i ← i+3, Q
// and the Init covariance are diagonal, and every observation row reads
// one state, so neither recursion can create an off-block entry: the
// dense products would compute every off-block element as a sum of +0
// terms. That holds while P is finite, and P never depends on the
// measurements, so a non-finite P needs a non-finite dt. The covariance
// kernels therefore run on the blocks alone (see propagateCovariance and
// covGain); P and K keep their dense nx×nx and nx×m storage, with the
// off-block entries left at +0.
const (
	nblk = 6
	// maxBlockRows bounds the observation rows that read one block: the
	// (z, vz) block carries GPS z, GPS vz, and the barometer.
	maxBlockRows = 3
)

// blockBase lists the first state of each covariance block.
var blockBase = [nblk]int{0, 1, 2, 6, 7, 8}

// blockOf returns the covariance block holding state s and the state's
// index within it (0 for blockBase[b], 1 for blockBase[b]+3).
func blockOf(s int) (blk, loc int) {
	return s%3 + 3*(s/6), (s / 3) % 2
}

// workspace holds the filter's preallocated scratch so the steady-state
// Predict/Correct cycle allocates nothing. The scratch is strictly
// call-local — no state survives in it between steps except the dt the
// transition Jacobian is keyed to — so reusing it cannot change results;
// delint's hotalloc analyzer keeps the hot functions from quietly
// reverting to allocating kernels.
type workspace struct {
	// fdt is the period of the kinematic transition Jacobian used for
	// covariance propagation, set by the first propagation after Init
	// (dt is fixed per mission; Q·dt still follows the current dt).
	// Because the prediction is strapdown (measurement driven), attitude
	// errors do not couple into velocity through the dynamics model; the
	// only structural coupling is position ← velocity and angle ← rate.
	// Using the full model Jacobian here would let GPS innovations leak
	// into the attitude estimate through spurious cross-covariances.
	fdt    float64
	fdtSet bool

	// Correct scratch: the active rows and measurements, the dense nx×m
	// gain (reshaped to the active row count m each call), the per-row
	// innovation gates, and the per-block solve: Sᵀ (reshaped to the
	// block's row count), one right-hand side and its solution.
	rows  []obsChannel
	z     []float64
	k     *mat.Mat
	gates []float64
	st    *mat.Mat
	rhs   mat.Vec
	sol   mat.Vec
	lu    *mat.LU
	xvec  mat.Vec
	innov mat.Vec
	dx    mat.Vec
}

// newWorkspace preallocates scratch for a filter with maxM observation
// rows.
func newWorkspace(maxM int) workspace {
	return workspace{
		rows:  make([]obsChannel, 0, maxM),
		z:     make([]float64, 0, maxM),
		k:     mat.New(nx, maxM),
		gates: make([]float64, 0, maxM),
		st:    mat.New(maxBlockRows, maxBlockRows),
		rhs:   mat.NewVec(maxBlockRows),
		sol:   mat.NewVec(maxBlockRows),
		lu:    mat.NewLU(maxBlockRows),
		xvec:  mat.NewVec(nx),
		innov: mat.NewVec(maxM),
		dx:    mat.NewVec(nx),
	}
}

// reshape resizes a workspace matrix to r×c, reusing its backing array
// (the workspace is sized at New for the largest shape).
func reshape(m *mat.Mat, r, c int) {
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:r*c]
}

// New returns a filter for the profile, with measurement noise taken from
// the profile's sensor noise floor.
func New(p vehicle.Profile) *Filter {
	n := p.Noise
	obs := []obsChannel{
		{sensor: sensors.GPS, state: 0, noise: nz(n.GPSPos)},
		{sensor: sensors.GPS, state: 1, noise: nz(n.GPSPos)},
		{sensor: sensors.GPS, state: 2, noise: nz(n.GPSPos)},
		{sensor: sensors.GPS, state: 3, noise: nz(n.GPSVel)},
		{sensor: sensors.GPS, state: 4, noise: nz(n.GPSVel)},
		{sensor: sensors.GPS, state: 5, noise: nz(n.GPSVel)},
		{sensor: sensors.Baro, state: 2, noise: nz(n.Baro)},
		{sensor: sensors.Mag, state: 8, noise: nz(10 * n.Mag)}, // yaw from field
		// Attitude corrections from the gyro-derived (complementary
		// filtered) angle estimates close the roll/pitch loop; without
		// them an attitude offset acquired during a gyro outage would
		// never decay.
		{sensor: sensors.Gyro, state: 6, noise: nz(20 * n.Gyro)},
		{sensor: sensors.Gyro, state: 7, noise: nz(20 * n.Gyro)},
	}
	return &Filter{
		step:     StepForProfile(p),
		isQuad:   p.IsQuad(),
		p:        mat.Identity(nx).Scale(0.1),
		q:        defaultProcessNoise(),
		obs:      obs,
		magYawN:  nz(10 * n.Mag),
		schedIdx: -1,
		ws:       newWorkspace(len(obs)),
	}
}

// nz guards against a zero noise floor (singular R).
func nz(v float64) float64 {
	if v <= 0 {
		return 1e-3
	}
	return v
}

func defaultProcessNoise() *mat.Mat {
	d := make([]float64, nx)
	for i := 0; i < 3; i++ {
		d[i] = 0.01   // position
		d[3+i] = 0.05 // velocity (wind is unmodelled)
		d[6+i] = 0.005
		d[9+i] = 0.01
	}
	return mat.Diag(d)
}

// Init seeds the filter state. If a schedule is attached, Init (re)arms
// consumption from step 0.
func (f *Filter) Init(s vehicle.State) {
	f.x = s
	f.p = mat.Identity(nx).Scale(0.1)
	f.ws.fdtSet = false
	f.predPending = false
	if f.sched != nil {
		f.schedIdx = 0
	} else {
		f.schedIdx = -1
	}
}

// AttachSchedule points the filter at a shared covariance/gain schedule.
// Must be called before Init; the schedule must have been built for the
// same profile and tick period the filter will run at (Correct detaches
// defensively on any mismatch it can observe).
func (f *Filter) AttachSchedule(s *Schedule) {
	f.sched = s
	f.predPending = false
	if s != nil {
		f.schedIdx = 0
	} else {
		f.schedIdx = -1
	}
}

// onShared reports whether the filter is currently consuming the shared
// schedule rather than running its private covariance recursion.
func (f *Filter) onShared() bool { return f.schedIdx >= 0 }

// detachShared permanently drops the filter off the shared schedule: it
// materializes the private covariance the schedule has been carrying on
// its behalf and, if a propagation was pending, runs it privately. From
// here on the filter is indistinguishable from one that ran the private
// recursion the whole mission. Cold path — it allocates during schedule
// replay; detachment is sticky so it runs at most once per mission.
func (f *Filter) detachShared() {
	sched, idx, pending := f.sched, f.schedIdx, f.predPending
	f.schedIdx = -1
	f.predPending = false
	sched.seedPost(idx-1, f.p)
	if pending {
		f.propagateCovariance(vehicle.Input{}, sched.dt)
	}
}

// State returns the current estimate.
func (f *Filter) State() vehicle.State { return f.x }

// Covariance returns a copy of the estimate covariance. A filter on the
// shared schedule detaches first (the schedule carries its covariance).
func (f *Filter) Covariance() *mat.Mat {
	if f.onShared() {
		f.detachShared()
	}
	return f.p.Clone()
}

// CovarianceInto copies the estimate covariance into dst without
// allocating. dst must be 12×12. A filter on the shared schedule detaches
// first (cold path).
func (f *Filter) CovarianceInto(dst *mat.Mat) {
	if f.onShared() {
		f.detachShared()
	}
	mat.CloneInto(dst, f.p)
}

// SetState force-sets the estimate (used when recovery hands the filter a
// reconstructed state).
func (f *Filter) SetState(s vehicle.State) { f.x = s }

// Predict rolls the estimate forward dt seconds under input u using the
// dynamics model only (no sensors at all) — the worst-case recovery and
// reconstruction primitive.
func (f *Filter) Predict(u vehicle.Input, dt float64) {
	if f.onShared() {
		// Pure model prediction only happens inside recovery — off the
		// shared all-active path by definition.
		f.detachShared()
	}
	f.propagateCovariance(u, dt)
	f.x = f.step(f.x, u, dt)
}

// PredictHybrid performs the strapdown prediction: inertial channels in
// active drive the propagation from their measurements; masked inertial
// channels fall back to the dynamics model under input u.
//
//   - gyroscope active: attitude integrates the measured body rates.
//   - accelerometer active: velocity integrates the measured acceleration.
//   - masked: the model step supplies the respective derivatives.
func (f *Filter) PredictHybrid(u vehicle.Input, meas sensors.PhysState, active sensors.TypeSet, dt float64) {
	if f.onShared() {
		if !f.predPending && f.sched.covers(dt) && active.Len() == sensors.NumTypes {
			// Nominal path: the covariance propagation is deferred and
			// consumed (together with the correction) from the shared
			// schedule in Correct. The Jacobian is still keyed on the
			// first tick so that a later detach propagates with exactly
			// the dt a private filter would (the mission's first dt).
			f.ws.keyJacobian(dt)
			f.predPending = true
		} else {
			f.detachShared()
			f.propagateCovariance(u, dt)
		}
	} else {
		f.propagateCovariance(u, dt)
	}
	model := f.step(f.x, u, dt)

	next := f.x

	// Attitude propagation.
	if f.isQuad && active.Has(sensors.Gyro) {
		next.WRoll = meas[sensors.SWRoll]
		next.WPitch = meas[sensors.SWPitch]
		next.WYaw = meas[sensors.SWYaw]
		next.Roll = vehicle.WrapAngle(f.x.Roll + next.WRoll*dt)
		next.Pitch = vehicle.WrapAngle(f.x.Pitch + next.WPitch*dt)
		next.Yaw = vehicle.WrapAngle(f.x.Yaw + next.WYaw*dt)
	} else if !f.isQuad && active.Has(sensors.Gyro) {
		// Rovers only use the yaw gyro.
		next.WYaw = meas[sensors.SWYaw]
		next.Yaw = vehicle.WrapAngle(f.x.Yaw + next.WYaw*dt)
	} else {
		next.Roll, next.Pitch, next.Yaw = model.Roll, model.Pitch, model.Yaw
		next.WRoll, next.WPitch, next.WYaw = model.WRoll, model.WPitch, model.WYaw
	}

	// Velocity propagation.
	if active.Has(sensors.Accel) {
		next.VX = f.x.VX + meas[sensors.SAX]*dt
		next.VY = f.x.VY + meas[sensors.SAY]*dt
		next.VZ = f.x.VZ + meas[sensors.SAZ]*dt
	} else {
		next.VX, next.VY, next.VZ = model.VX, model.VY, model.VZ
	}

	// Position integrates the propagated velocity.
	next.X = f.x.X + next.VX*dt
	next.Y = f.x.Y + next.VY*dt
	next.Z = f.x.Z + next.VZ*dt
	if next.Z < 0 {
		next.Z = 0
	}
	f.x = next
}

// propagateCovariance advances P ← sym(F·P·Fᵀ + Q·dt) block by block.
// Each block runs the arithmetic of the dense chain
// F.Mul(P).Mul(F.T()).Add(Q.Scale(dt)).Symmetrize() restricted to its
// entries, in the same order, so the covariance is bit-identical to the
// dense product (the off-block terms it skips are all +0). F is keyed to
// the first propagation's dt since Init; Q·dt uses the current dt.
func (f *Filter) propagateCovariance(_ vehicle.Input, dt float64) {
	f.ws.keyJacobian(dt)
	fb := mat2{1, f.ws.fdt, 0, 1}
	fbT := mat2{1, 0, f.ws.fdt, 1}
	for _, a := range blockBase {
		fpf := mul2(mul2(fb, f.block(a)), fbT)
		fpf.a00 += float64(dt * f.q.At(a, a))
		fpf.a01 += float64(dt * f.q.At(a, a+3))
		fpf.a10 += float64(dt * f.q.At(a+3, a))
		fpf.a11 += float64(dt * f.q.At(a+3, a+3))
		f.setBlock(a, sym2(fpf))
	}
}

// keyJacobian keys the transition Jacobian to dt unless a propagation
// since Init already has.
func (ws *workspace) keyJacobian(dt float64) {
	if !ws.fdtSet {
		ws.fdt, ws.fdtSet = dt, true
	}
}

// mat2 is a 2×2 block in row-major order. It is a struct rather than an
// array so that the block kernels pass it in registers.
type mat2 struct{ a00, a01, a10, a11 float64 }

// block reads the covariance block whose first state is a.
func (f *Filter) block(a int) mat2 {
	d := f.p.Data
	return mat2{d[a*nx+a], d[a*nx+a+3], d[(a+3)*nx+a], d[(a+3)*nx+a+3]}
}

// setBlock writes the covariance block whose first state is a.
func (f *Filter) setBlock(a int, b mat2) {
	d := f.p.Data
	d[a*nx+a], d[a*nx+a+3] = b.a00, b.a01
	d[(a+3)*nx+a], d[(a+3)*nx+a+3] = b.a10, b.a11
}

// mul2 returns a·b with mat.MulInto's accumulation: every sum starts
// from +0, runs over k in order, and skips zero left operands.
func mul2(a, b mat2) mat2 {
	var c mat2
	if v := a.a00; !floats.Zero(v) {
		c.a00 += v * b.a00
		c.a01 += v * b.a01
	}
	if v := a.a01; !floats.Zero(v) {
		c.a00 += v * b.a10
		c.a01 += v * b.a11
	}
	if v := a.a10; !floats.Zero(v) {
		c.a10 += v * b.a00
		c.a11 += v * b.a01
	}
	if v := a.a11; !floats.Zero(v) {
		c.a10 += v * b.a10
		c.a11 += v * b.a11
	}
	return c
}

// sym2 returns (a + aᵀ)/2 with mat.SymmetrizeInto's arithmetic.
func sym2(a mat2) mat2 {
	return mat2{
		0.5 * (a.a00 + a.a00), 0.5 * (a.a01 + a.a10),
		0.5 * (a.a10 + a.a01), 0.5 * (a.a11 + a.a11),
	}
}

// MagYaw derives the yaw observation from a magnetometer field
// measurement, inverting the BodyField observation model.
func MagYaw(meas sensors.PhysState) float64 {
	return math.Atan2(-meas[sensors.SMagY], meas[sensors.SMagX])
}

// Correct fuses the correcting sensors (GPS, barometer, magnetometer) in
// active; masked sensors contribute nothing — the isolation mechanism of
// Fig. 4. Inertial sensors do not appear here; they act in PredictHybrid.
//
// The update is split into a measurement-independent covariance/gain half
// (covGain: H, R, S, the innovation gates, K, and the posterior P — all a
// function of the prior P and the active row set only) and a state half
// (applyGain: innovation, gating, state update). On the nominal all-active
// path the first half is identical for every mission sharing a (profile,
// dt) pair, so a filter attached to a Schedule consumes the precomputed
// (K, gates) for its current step instead of recomputing them; the split
// only reorders operations that do not depend on each other, so results
// stay bit-identical either way.
func (f *Filter) Correct(meas sensors.PhysState, active sensors.TypeSet) error {
	rows, z := f.selectRows(meas, active)
	if f.onShared() {
		if f.predPending && len(rows) == f.sched.fullRows() {
			st, err := f.sched.step(f.schedIdx)
			if err != nil {
				return err
			}
			f.predPending = false
			f.schedIdx++
			f.applyGain(rows, z, st.k, st.gates)
			return nil
		}
		// Contract breach (masked sensor, or Correct without a pending
		// predict): leave the shared path and redo this cycle privately.
		f.detachShared()
	}
	if len(rows) == 0 {
		return nil
	}
	k, gates, err := f.covGain(rows)
	if err != nil {
		return err
	}
	f.applyGain(rows, z, k, gates)
	return nil
}

// selectRows fills the workspace row set and measurement vector for the
// active sensors and returns them (aliases of ws.rows/ws.z).
func (f *Filter) selectRows(meas sensors.PhysState, active sensors.TypeSet) ([]obsChannel, []float64) {
	ws := &f.ws
	rows := ws.rows[:0]
	z := ws.z[:0]
	for _, ch := range f.obs {
		if !active.Has(ch.sensor) {
			continue
		}
		if ch.sensor == sensors.Gyro && !f.isQuad {
			continue // rovers carry no roll/pitch
		}
		rows = append(rows, ch)
		if ch.sensor == sensors.Mag {
			z = append(z, MagYaw(meas))
		} else {
			z = append(z, measChannel(meas, ch))
		}
	}
	ws.rows, ws.z = rows, z
	return rows, z
}

// covGain runs the measurement-independent half of the correction: per
// covariance block it forms S = H·P·Hᵀ + R over the block's active rows,
// derives their innovation gate half-widths, solves for the block's
// Kalman gain K = P·Hᵀ·S⁻¹, and advances P ← sym((I − K·H)·P). The
// returned gain (dense nx×m, +0 off the blocks) and gates alias the
// workspace and stay valid until the next covGain call.
//
// Each step repeats the dense chain's arithmetic on the block's entries,
// in the same order, so P is bit-identical to the dense product: S is
// block-diagonal up to a row permutation, partial pivoting on the dense
// S never leaves a block, and every term the block kernels skip is +0.
// The gains of all blocks are solved before any block of P is written,
// so an error from a singular block leaves P untouched.
func (f *Filter) covGain(rows []obsChannel) (*mat.Mat, []float64, error) {
	ws := &f.ws
	m := len(rows)
	reshape(ws.k, nx, m)
	ws.k.Zero()
	gates := ws.gates[:m]
	var groups [nblk]obsBlock
	for r, ch := range rows {
		blk, loc := blockOf(ch.state)
		g := &groups[blk]
		g.idx[g.n] = r
		g.h[g.n][loc] = 1
		g.n++
	}
	var post [nblk]mat2
	for b, a := range blockBase {
		g := &groups[b]
		pb := f.block(a)
		if g.n > 0 {
			if err := f.blockGain(a, pb, g, rows, gates); err != nil {
				return nil, nil, fmt.Errorf("ekf correct: %w", err)
			}
		}
		// K·H over the block's rows; an unobserved block has K = 0.
		var kh [2][2]float64
		for i := 0; i < 2; i++ {
			for c := 0; c < g.n; c++ {
				v := ws.k.At(a+3*i, g.idx[c])
				if floats.Zero(v) {
					continue
				}
				for j := 0; j < 2; j++ {
					kh[i][j] += v * g.h[c][j]
				}
			}
		}
		// I − K·H element by element, as the dense SubInto (0 − (+0) is +0).
		ikh := mat2{1 - kh[0][0], 0 - kh[0][1], 0 - kh[1][0], 1 - kh[1][1]}
		post[b] = sym2(mul2(ikh, pb))
	}
	for b, a := range blockBase {
		f.setBlock(a, post[b])
	}
	return ws.k, gates, nil
}

// obsBlock is one covariance block's share of the active rows: their
// indices into the row set, in row order, and the block's observation
// matrix (row c reads block-local state loc where h[c][loc] = 1).
type obsBlock struct {
	n   int
	idx [maxBlockRows]int
	h   [maxBlockRows][2]float64
}

// blockGain computes one block's innovation gates and gain columns: a is
// the block's first state, pb its prior covariance and g its rows.
func (f *Filter) blockGain(a int, pb mat2, g *obsBlock, rows []obsChannel, gates []float64) error {
	ws := &f.ws
	mb, h := g.n, &g.h
	// P·Hᵀ (2×mb).
	prow := [2][2]float64{{pb.a00, pb.a01}, {pb.a10, pb.a11}}
	var ph [2][maxBlockRows]float64
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			v := prow[i][k]
			if floats.Zero(v) {
				continue
			}
			for c := 0; c < mb; c++ {
				ph[i][c] += v * h[c][k]
			}
		}
	}
	// S = H·P·Hᵀ + R, stored transposed for the solve. R is zero off the
	// diagonal; the addition still runs over every element, as the dense
	// Add(Diag(rdiag)) did.
	st := ws.st
	reshape(st, mb, mb)
	for r := 0; r < mb; r++ {
		for c := 0; c < mb; c++ {
			var hph, rn float64
			for k := 0; k < 2; k++ {
				v := h[r][k]
				if floats.Zero(v) {
					continue
				}
				hph += v * ph[k][c]
			}
			if r == c {
				n := rows[g.idx[r]].noise
				rn = float64(n * n)
			}
			st.Set(c, r, hph+rn)
		}
	}
	// Innovation gates: ±gateSigma·√S_ii, the standard EKF defense against
	// implausible jumps. A deception bias larger than the gate is admitted
	// gradually (a few gates per correction cycle) rather than
	// instantaneously — which bounds how far a single corrupted correction
	// can drag the estimate while still letting persistent spoofing take
	// effect, as observed on real autopilot stacks.
	const gateSigma = 5.0
	for r := 0; r < mb; r++ {
		gates[g.idx[r]] = gateSigma * math.Sqrt(st.At(r, r))
	}
	// K = P Hᵀ S⁻¹  ⇒  solve Sᵀ Kᵀ = (P Hᵀ)ᵀ, one state column at a time.
	if err := ws.lu.Refactor(st); err != nil {
		return err
	}
	rhs, sol := ws.rhs[:mb], ws.sol[:mb]
	for i := 0; i < 2; i++ {
		copy(rhs, ph[i][:mb])
		if err := ws.lu.SolveVecInto(sol, rhs); err != nil {
			return err
		}
		for c, r := range g.idx[:mb] {
			ws.k.Set(a+3*i, r, sol[c])
		}
	}
	return nil
}

// applyGain runs the state half of the correction: the innovation against
// the current estimate, clamped to the precomputed gates, scaled through
// the gain. k must be nx×m and gates length m for m = len(rows).
func (f *Filter) applyGain(rows []obsChannel, z []float64, k *mat.Mat, gates []float64) {
	ws := &f.ws
	m := len(rows)
	xvec := ws.xvec
	f.x.VecInto(xvec)
	innov := ws.innov[:m]
	for i, ch := range rows {
		d := z[i] - xvec[ch.state]
		if ch.state >= 6 && ch.state <= 8 {
			d = vehicle.WrapAngle(d)
		}
		innov[i] = vehicle.Clamp(d, -gates[i], gates[i])
	}
	mat.MulVecInto(ws.dx, k, innov)
	xvec.AddInPlace(ws.dx)
	f.x = vehicle.StateFromVec(xvec)
	f.x.Roll = vehicle.WrapAngle(f.x.Roll)
	f.x.Pitch = vehicle.WrapAngle(f.x.Pitch)
	f.x.Yaw = vehicle.WrapAngle(f.x.Yaw)
}

// measChannel reads the PS channel corresponding to an observation row.
func measChannel(meas sensors.PhysState, ch obsChannel) float64 {
	switch {
	case ch.sensor == sensors.Baro:
		return meas[sensors.SBaroAlt]
	case ch.sensor == sensors.Gyro:
		return meas[sensors.SRoll+sensors.StateIndex(ch.state-6)]
	default:
		return meas[sensors.StateIndex(ch.state)] // x..vz map 1:1
	}
}

// RollForward replays the dynamics from state s over the recorded control
// inputs, one step of dt each, and returns the terminal state. It is the
// §4.3 reconstruction operator: x_r(t_{s+1}) = f(x_{t_s}, u_{t_s}), applied
// iteratively to t_a.
func RollForward(step StepFunc, s vehicle.State, inputs []vehicle.Input, dt float64) vehicle.State {
	for _, u := range inputs {
		s = step(s, u, dt)
	}
	return s
}
