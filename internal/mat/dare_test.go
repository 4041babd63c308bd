package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// riccatiResidual returns the relative residual of the DARE at p,
// ‖Aᵀ·P·A − Aᵀ·P·B·(R + Bᵀ·P·B)⁻¹·Bᵀ·P·A + Q − P‖ / ‖P‖ in the max norm.
func riccatiResidual(t *testing.T, a, b, q, r, p *Mat) float64 {
	t.Helper()
	bt := b.T()
	m, err := SolveMat(r.Add(bt.Mul(p).Mul(b)), bt.Mul(p).Mul(a))
	if err != nil {
		t.Fatalf("residual solve: %v", err)
	}
	rhs := a.T().Mul(p).Mul(a).Sub(a.T().Mul(p).Mul(b).Mul(m)).Add(q)
	return rhs.MaxAbsDiff(p) / Vec(p.Data).MaxAbs()
}

// An unstabilizable system (the unstable mode A=2 has no input) has no
// stabilizing solution: the doubling iterates blow up, and the solver
// must say so instead of returning a non-finite P with a nil error.
func TestSolveDAREUnstabilizableFails(t *testing.T) {
	a := FromRows([][]float64{{2}})
	b := FromRows([][]float64{{0}})
	q := FromRows([][]float64{{1}})
	r := FromRows([][]float64{{1}})
	p, err := SolveDARE(a, b, q, r, 10000, 1e-9)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("SolveDARE = %v, %v; want ErrNoConvergence", p, err)
	}
	if p != nil {
		t.Errorf("SolveDARE returned P = %v alongside its error", p)
	}
	if !strings.Contains(err.Error(), "riccati step") {
		t.Errorf("error %q does not name the failing step", err)
	}
	if k, err := LQRGain(a, b, q, r); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("LQRGain = %v, %v; want ErrNoConvergence", k, err)
	}
}

func TestMaxAbsDiffSeesNaN(t *testing.T) {
	a := FromRows([][]float64{{1, math.NaN(), 3}})
	b := FromRows([][]float64{{1, 2, 30}})
	if d := a.MaxAbsDiff(b); !math.IsNaN(d) {
		t.Errorf("MaxAbsDiff = %v, want NaN", d)
	}
	if d := b.MaxAbsDiff(a); !math.IsNaN(d) {
		t.Errorf("MaxAbsDiff (swapped) = %v, want NaN", d)
	}
}

type dareCase struct {
	name       string
	a, b, q, r *Mat
}

// dareCases returns a scalar and a double-integrator system, both with
// open-loop poles on the unit circle, and random stabilizable systems of
// mixed sizes, some of them open-loop unstable.
func dareCases() []dareCase {
	dt := 0.01
	cs := []dareCase{
		{"scalar", FromRows([][]float64{{1}}), FromRows([][]float64{{1}}),
			FromRows([][]float64{{1}}), FromRows([][]float64{{1}})},
		{"double integrator", FromRows([][]float64{{1, dt}, {0, 1}}),
			FromRows([][]float64{{0.5 * dt * dt}, {dt}}), Diag([]float64{10, 1}), Diag([]float64{1})},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n, m := 2+rng.Intn(7), 1+rng.Intn(3)
		a, b := New(n, n), New(n, m)
		for i := range a.Data {
			a.Data[i] = 0.6 * rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		q := Identity(n)
		for i := 0; i < n; i++ {
			q.Set(i, i, 0.1+rng.Float64())
		}
		cs = append(cs, dareCase{fmt.Sprintf("random %d (n=%d, m=%d)", trial, n, m), a, b, q, Identity(m)})
	}
	return cs
}

// The doubling iteration converges quadratically: a budget of 30 steps
// suffices where the fixed-point recursion needed thousands, and the
// solution satisfies the Riccati equation to a relative residual of
// 1e-10.
func TestSolveDAREResidual(t *testing.T) {
	for _, c := range dareCases() {
		p, err := SolveDARE(c.a, c.b, c.q, c.r, 30, 1e-9)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res := riccatiResidual(t, c.a, c.b, c.q, c.r, p); res > 1e-10 {
			t.Errorf("%s: relative residual %g > 1e-10", c.name, res)
		}
	}
}

func TestSolveDAREBudgetExhausted(t *testing.T) {
	dt := 0.01
	a := FromRows([][]float64{{1, dt}, {0, 1}})
	b := FromRows([][]float64{{0.5 * dt * dt}, {dt}})
	if _, err := SolveDARE(a, b, Diag([]float64{10, 1}), Diag([]float64{1}), 2, 1e-12); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("two-step budget: err = %v, want ErrNoConvergence", err)
	}
}

// TestSolveDAREConstantAllocs: the allocation count of a solve does not
// grow with the number of steps it takes.
func TestSolveDAREConstantAllocs(t *testing.T) {
	a := FromRows([][]float64{{1, 0.1}, {0, 1}})
	b := FromRows([][]float64{{0.005}, {0.1}})
	q, r := Diag([]float64{10, 1}), Diag([]float64{1})
	allocs := func(tol float64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := SolveDARE(a, b, q, r, 100, tol); err != nil {
				t.Fatal(err)
			}
		})
	}
	if loose, tight := allocs(1e-2), allocs(1e-14); loose != tight {
		t.Errorf("allocs/solve: %v at tol 1e-2, %v at tol 1e-14; want equal", loose, tight)
	}
}
