package mat

import (
	"errors"
	"fmt"
)

// ErrNoConvergence is returned when an iterative solver exceeds its
// iteration budget without meeting its tolerance, or when its iterates
// stop being finite.
var ErrNoConvergence = errors.New("mat: iteration did not converge")

// SolveDARE solves the discrete algebraic Riccati equation
//
//	P = Aᵀ·P·A − Aᵀ·P·B·(R + Bᵀ·P·B)⁻¹·Bᵀ·P·A + Q
//
// for its stabilizing solution. It is used to synthesize the LQR recovery
// gain. A is n×n, B is n×m, Q is n×n PSD, R is m×m PD.
//
// The solver is the structure-preserving doubling algorithm (SDA; Chu,
// Fan & Lin). From A₀ = A, G₀ = B·R⁻¹·Bᵀ, H₀ = Q and with W = I + G·H it
// iterates
//
//	A ← A·W⁻¹·A
//	G ← G + A·W⁻¹·G·Aᵀ
//	H ← H + Aᵀ·H·W⁻¹·A
//
// H converges quadratically to P: each step doubles the horizon the
// iterate accounts for, so the solve takes tens of steps where a
// fixed-point Riccati recursion takes thousands. The iteration stops at
// the first step whose largest element-wise change in H is at most tol
// times H's largest element; by then the remaining error is of the order
// of tol², far below tol. The recovery controllers' systems (quad hover,
// rover grid) stop after 12–13 steps. A step that meets a singular W, or
// whose iterates are no longer finite (an unstabilizable system makes H
// diverge), fails with an error that names the step; so does running
// out of maxIter steps (ErrNoConvergence).
func SolveDARE(a, b, q, r *Mat, maxIter int, tol float64) (*Mat, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n || q.Rows != n || q.Cols != n ||
		r.Rows != b.Cols || r.Cols != b.Cols {
		return nil, ErrDimensionMismatch
	}
	// G₀ = B·R⁻¹·Bᵀ, symmetrized.
	rinvbt, err := SolveMat(r, b.T())
	if err != nil {
		return nil, fmt.Errorf("riccati: R: %w", err)
	}
	// Every product below is written into a preallocated workspace, so
	// the whole solve performs a constant number of allocations however
	// many steps it takes.
	ak := a.Clone()
	h := q.Clone()
	g := New(n, n)
	akt := New(n, n)   // Aᵀ
	w := New(n, n)     // I + G·H
	winva := New(n, n) // W⁻¹·A
	winvg := New(n, n) // W⁻¹·G
	t1 := New(n, n)
	t2 := New(n, n)
	MulInto(t1, b, rinvbt)
	SymmetrizeInto(g, t1)
	lu := NewLU(n)
	for step := 0; step < maxIter; step++ {
		MulInto(w, g, h)
		for i := 0; i < n; i++ {
			w.Data[i*n+i]++
		}
		if err := lu.Refactor(w); err != nil {
			return nil, fmt.Errorf("riccati step %d: %w", step, err)
		}
		if err := lu.SolveInto(winva, ak); err != nil {
			return nil, fmt.Errorf("riccati step %d: %w", step, err)
		}
		if err := lu.SolveInto(winvg, g); err != nil {
			return nil, fmt.Errorf("riccati step %d: %w", step, err)
		}
		TransposeInto(akt, ak)
		// G ← sym(G + A·W⁻¹·G·Aᵀ)
		MulInto(t1, ak, winvg)
		MulInto(t2, t1, akt)
		AddInto(t2, g, t2)
		SymmetrizeInto(g, t2)
		// H ← sym(H + Aᵀ·H·W⁻¹·A); the previous H stays in t2 for the
		// stopping rule.
		MulInto(t1, h, winva)
		CloneInto(t2, h)
		MulInto(w, akt, t1)
		AddInto(w, t2, w)
		SymmetrizeInto(h, w)
		// A ← A·W⁻¹·A
		MulInto(t1, ak, winva)
		ak, t1 = t1, ak
		if !h.IsFinite() || !g.IsFinite() || !ak.IsFinite() {
			return nil, fmt.Errorf("riccati step %d: non-finite iterate: %w", step, ErrNoConvergence)
		}
		if h.MaxAbsDiff(t2) <= tol*Vec(h.Data).MaxAbs() {
			return h, nil
		}
	}
	return nil, ErrNoConvergence
}

// LQRGain returns the infinite-horizon discrete LQR state-feedback gain
//
//	K = (R + Bᵀ·P·B)⁻¹ · Bᵀ·P·A
//
// so that u = −K·(x − x_ref) stabilizes x(t+1) = A·x + B·u. A gain that
// is not finite is rejected with ErrNoConvergence.
func LQRGain(a, b, q, r *Mat) (*Mat, error) {
	p, err := SolveDARE(a, b, q, r, 10000, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("lqr gain: %w", err)
	}
	bt := b.T()
	s := r.Add(bt.Mul(p).Mul(b))
	k, err := SolveMat(s, bt.Mul(p).Mul(a))
	if err != nil {
		return nil, fmt.Errorf("lqr gain solve: %w", err)
	}
	if !k.IsFinite() {
		return nil, fmt.Errorf("lqr gain: non-finite gain: %w", ErrNoConvergence)
	}
	return k, nil
}
