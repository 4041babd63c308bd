package recovery

import (
	"fmt"
	"testing"

	"repro/internal/mat"
	"repro/internal/vehicle"
)

// fixedPointDARE is the Riccati solver the doubling iteration in
// mat.SolveDARE replaced: the fixed-point recursion
//
//	P ← sym(Aᵀ·P·A − Aᵀ·P·B·(R + Bᵀ·P·B)⁻¹·Bᵀ·P·A + Q)
//
// from P₀ = Q, stopping when no element moves by tol. It needs thousands
// of steps on the recovery systems and survives only as the oracle the
// new solver's gains are held against.
func fixedPointDARE(a, b, q, r *mat.Mat, maxIter int, tol float64) (*mat.Mat, error) {
	at, bt := a.T(), b.T()
	p := q.Clone()
	for iter := 0; iter < maxIter; iter++ {
		btp := bt.Mul(p)
		m, err := mat.SolveMat(r.Add(btp.Mul(b)), btp.Mul(a))
		if err != nil {
			return nil, fmt.Errorf("riccati step %d: %w", iter, err)
		}
		atp := at.Mul(p)
		next := atp.Mul(a).Sub(atp.Mul(b).Mul(m)).Add(q).Symmetrize()
		if next.MaxAbsDiff(p) < tol {
			return next, nil
		}
		p = next
	}
	return nil, mat.ErrNoConvergence
}

// gainFromP returns K = (R + Bᵀ·P·B)⁻¹·Bᵀ·P·A.
func gainFromP(t *testing.T, a, b, r, p *mat.Mat) *mat.Mat {
	t.Helper()
	btp := b.T().Mul(p)
	k, err := mat.SolveMat(r.Add(btp.Mul(b)), btp.Mul(a))
	if err != nil {
		t.Fatalf("gain solve: %v", err)
	}
	return k
}

// relResidual returns ‖Aᵀ·P·A − Aᵀ·P·B·K + Q − P‖ / ‖P‖ in the max norm,
// with K the gain at P.
func relResidual(t *testing.T, a, b, q, r, p *mat.Mat) float64 {
	t.Helper()
	atp := a.T().Mul(p)
	rhs := atp.Mul(a).Sub(atp.Mul(b).Mul(gainFromP(t, a, b, r, p))).Add(q)
	return rhs.MaxAbsDiff(p) / mat.Vec(p.Data).MaxAbs()
}

type lqrProblem struct {
	name       string
	a, b, q, r *mat.Mat
}

// recoveryProblems returns the DAREs the recovery controller solves: the
// hover system of every quad profile, and each rover profile on a grid
// of headings × speeds that includes speeds under the 0.5 m/s clamp.
func recoveryProblems() []lqrProblem {
	var ps []lqrProblem
	for _, p := range vehicle.Profiles() {
		if p.IsQuad() {
			a, b, q, r := quadModel(p.Quad, 0.01)
			ps = append(ps, lqrProblem{string(p.Name), a, b, q, r})
			continue
		}
		for _, yaw := range []float64{0, 0.9, -2.2, 3.1} {
			for _, v := range []float64{0.2, 0.5, 1, 2, 3, 4} {
				a, b, q, r := roverModel(p.Rover, yaw, v, 0.01)
				ps = append(ps, lqrProblem{fmt.Sprintf("%s/yaw=%g/v=%g", p.Name, yaw, v), a, b, q, r})
			}
		}
	}
	return ps
}

// TestRecoveryDAREEvidence holds the doubling solver to the recovery
// systems of all six profiles: it converges within 30 steps (quadratic
// convergence), its solution satisfies the Riccati equation to a
// relative residual of 1e-10, and its gain matches the fixed-point
// oracle's (run as LQRGain ran it) to 1e-8.
func TestRecoveryDAREEvidence(t *testing.T) {
	for _, c := range recoveryProblems() {
		p, err := mat.SolveDARE(c.a, c.b, c.q, c.r, 30, 1e-9)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res := relResidual(t, c.a, c.b, c.q, c.r, p); res > 1e-10 {
			t.Errorf("%s: relative Riccati residual %g > 1e-10", c.name, res)
		}
		po, err := fixedPointDARE(c.a, c.b, c.q, c.r, 10000, 1e-9)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		k, ko := gainFromP(t, c.a, c.b, c.r, p), gainFromP(t, c.a, c.b, c.r, po)
		if d := k.MaxAbsDiff(ko); !(d <= 1e-8) {
			t.Errorf("%s: gain differs from the fixed-point oracle by %g > 1e-8", c.name, d)
		}
	}
}
