package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randMat fills an r×c matrix from the deterministic source.
func randMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// bitEqual reports element-wise bit identity (distinguishes ±0, NaN
// payloads — the determinism contract is bytes, not epsilons).
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestIntoEquivalence pins the contract the hot path depends on: every
// *Into kernel produces bit-identical Data to its allocating twin.
func TestIntoEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := randMat(rng, 7, 5)
		b := randMat(rng, 5, 9)
		c := randMat(rng, 7, 5)
		sq := randMat(rng, 6, 6)
		v := make(Vec, 5)
		for i := range v {
			v[i] = rng.NormFloat64()
		}

		mul := New(7, 9)
		MulInto(mul, a, b)
		if !bitEqual(mul.Data, a.Mul(b).Data) {
			t.Fatal("MulInto diverges from Mul")
		}
		mv := NewVec(7)
		MulVecInto(mv, c, v)
		if !bitEqual(mv, c.MulVec(v)) {
			t.Fatal("MulVecInto diverges from MulVec")
		}
		add := New(7, 5)
		AddInto(add, a, c)
		if !bitEqual(add.Data, a.Add(c).Data) {
			t.Fatal("AddInto diverges from Add")
		}
		sub := New(7, 5)
		SubInto(sub, a, c)
		if !bitEqual(sub.Data, a.Sub(c).Data) {
			t.Fatal("SubInto diverges from Sub")
		}
		sc := New(7, 5)
		ScaleInto(sc, 0.37, a)
		if !bitEqual(sc.Data, a.Scale(0.37).Data) {
			t.Fatal("ScaleInto diverges from Scale")
		}
		tr := New(5, 7)
		TransposeInto(tr, a)
		if !bitEqual(tr.Data, a.T().Data) {
			t.Fatal("TransposeInto diverges from T")
		}
		cl := New(7, 5)
		CloneInto(cl, a)
		if !bitEqual(cl.Data, a.Clone().Data) {
			t.Fatal("CloneInto diverges from Clone")
		}
		sym := New(6, 6)
		SymmetrizeInto(sym, sq)
		if !bitEqual(sym.Data, sq.Symmetrize().Data) {
			t.Fatal("SymmetrizeInto diverges from Symmetrize")
		}
	}
}

// TestElementwiseIntoAllowsAliasing: the element-wise kernels accept a
// destination that aliases an operand and still produce the allocating
// twin's result.
func TestElementwiseIntoAllowsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 4, 3)
	b := randMat(rng, 4, 3)

	want := a.Add(b)
	got := a.Clone()
	AddInto(got, got, b)
	if !bitEqual(got.Data, want.Data) {
		t.Error("aliased AddInto diverges")
	}

	want = a.Sub(b)
	got = a.Clone()
	SubInto(got, got, b)
	if !bitEqual(got.Data, want.Data) {
		t.Error("aliased SubInto diverges")
	}

	want = a.Scale(2.5)
	got = a.Clone()
	ScaleInto(got, 2.5, got)
	if !bitEqual(got.Data, want.Data) {
		t.Error("aliased ScaleInto diverges")
	}

	got = a.Clone()
	CloneInto(got, got) // self-copy must be a no-op
	if !bitEqual(got.Data, a.Data) {
		t.Error("self CloneInto corrupted data")
	}
}

// mustPanic asserts fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	fn()
}

// TestCrossElementIntoRejectsAliasing: kernels with cross-element data
// flow must panic when the destination shares storage with an input —
// silent corruption otherwise.
func TestCrossElementIntoRejectsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 4, 4)
	b := randMat(rng, 4, 4)
	v := make(Vec, 4)

	mustPanic(t, "MulInto dst=a", func() { MulInto(a, a, b) })
	mustPanic(t, "MulInto dst=b", func() { MulInto(b, a, b) })
	mustPanic(t, "MulVecInto dst=v", func() { MulVecInto(v, a, v) })
	mustPanic(t, "TransposeInto dst=a", func() { TransposeInto(a, a) })
	mustPanic(t, "SymmetrizeInto dst=a", func() { SymmetrizeInto(a, a) })
}

// TestIntoShapeChecks: destinations of the wrong shape panic rather than
// writing out of place.
func TestIntoShapeChecks(t *testing.T) {
	a := New(3, 4)
	b := New(4, 2)
	mustPanic(t, "MulInto shape", func() { MulInto(New(3, 3), a, b) })
	mustPanic(t, "AddInto shape", func() { AddInto(New(3, 3), a, a) })
	mustPanic(t, "TransposeInto shape", func() { TransposeInto(New(3, 4), a) })
	mustPanic(t, "SymmetrizeInto non-square", func() { SymmetrizeInto(New(3, 4), a) })
	mustPanic(t, "MulVecInto len", func() { MulVecInto(make(Vec, 2), a, make(Vec, 4)) })
}

// TestLUWorkspaceEquivalence: Refactor/SolveInto reproduce
// FactorLU/Solve bit-for-bit while reusing buffers, and the solve
// workspace refuses an aliased right-hand side.
func TestLUWorkspaceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ws := NewLU(6)
	for trial := 0; trial < 10; trial++ {
		a := randMat(rng, 6, 6)
		for i := 0; i < 6; i++ {
			a.Set(i, i, a.At(i, i)+6) // diagonally dominant: well-conditioned
		}
		b := randMat(rng, 6, 3)

		ref, err := FactorLU(a)
		if err != nil {
			t.Fatalf("FactorLU: %v", err)
		}
		want, err := ref.Solve(b)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if err := ws.Refactor(a); err != nil {
			t.Fatalf("Refactor: %v", err)
		}
		got := New(6, 3)
		if err := ws.SolveInto(got, b); err != nil {
			t.Fatalf("SolveInto: %v", err)
		}
		if !bitEqual(got.Data, want.Data) {
			t.Fatal("workspace LU solve diverges from allocating solve")
		}
	}
	vb := make(Vec, 6)
	mustPanic(t, "SolveVecInto dst=b", func() { _ = ws.SolveVecInto(vb, vb) })
	sq := New(6, 6)
	mustPanic(t, "SolveInto dst=b", func() { _ = ws.SolveInto(sq, sq) })
}

// TestLUWorkspaceZeroAlloc: a warmed LU workspace factors and solves
// same-sized systems without allocating.
func TestLUWorkspaceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 8, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, i, a.At(i, i)+8)
	}
	b := randMat(rng, 8, 8)
	dst := New(8, 8)
	ws := NewLU(8)
	if n := testing.AllocsPerRun(50, func() {
		if err := ws.Refactor(a); err != nil {
			t.Fatal(err)
		}
		if err := ws.SolveInto(dst, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("LU Refactor+SolveInto allocates %v per run, want 0", n)
	}
}

// TestLUAlternatingSizesZeroAlloc: a workspace sized for its largest
// system factors and solves smaller ones, alternating sizes every call,
// without allocating — no warm-up at each size is needed, because the
// buffers are resliced within their capacity.
func TestLUAlternatingSizesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var as []*Mat
	var bs, xs []Vec
	for _, n := range []int{3, 1, 2} {
		a := randMat(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		as = append(as, a)
		bs = append(bs, Vec(randMat(rng, n, 1).Data))
		xs = append(xs, NewVec(n))
	}
	ws := NewLU(3)
	if n := testing.AllocsPerRun(50, func() {
		for i, a := range as {
			if err := ws.Refactor(a); err != nil {
				t.Fatal(err)
			}
			if err := ws.SolveVecInto(xs[i], bs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("LU alternating sizes 3/1/2 allocates %v per run, want 0", n)
	}
	for i, a := range as {
		want, err := Solve(a, bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(xs[i], want) {
			t.Fatalf("size %d: resliced workspace solve diverges from a fresh solve", a.Rows)
		}
	}
}
