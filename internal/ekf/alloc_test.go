package ekf_test

// Allocation-budget regression tests: the steady-state filter cycle must
// not allocate at all. These assert the tentpole invariant directly, so a
// future change that quietly reintroduces a per-tick allocation fails the
// suite (delint's hotalloc analyzer catches the static cases; this
// catches everything else).

import (
	"testing"

	"repro/internal/sensors"
	"repro/internal/vehicle"
)

func TestEKFPredictZeroAlloc(t *testing.T) {
	f, _, _ := benchFilter()
	u := vehicle.Input{Thrust: 9}
	if n := testing.AllocsPerRun(200, func() { f.Predict(u, 0.01) }); n != 0 {
		t.Errorf("Predict allocates %v per run, want 0", n)
	}
}

func TestEKFPredictHybridZeroAlloc(t *testing.T) {
	f, meas, active := benchFilter()
	u := vehicle.Input{Thrust: 9}
	if n := testing.AllocsPerRun(200, func() { f.PredictHybrid(u, meas, active, 0.01) }); n != 0 {
		t.Errorf("PredictHybrid allocates %v per run, want 0", n)
	}
}

func TestEKFCorrectZeroAlloc(t *testing.T) {
	f, meas, active := benchFilter()
	if n := testing.AllocsPerRun(200, func() {
		if err := f.Correct(meas, active); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Correct allocates %v per run, want 0", n)
	}
}

// TestEKFCorrectZeroAllocAfterReshape: shrinking the observation set
// (sensor isolation) and growing it back must stay allocation-free with
// no warm-up of either set — the workspace is sized for the maximum row
// count up front, and the per-block LU reslices between system sizes.
func TestEKFCorrectZeroAllocAfterReshape(t *testing.T) {
	f, meas, _ := benchFilter()
	all := sensors.NewTypeSet(sensors.AllTypes()...)
	masked := all.Clone()
	delete(masked, sensors.GPS)
	if n := testing.AllocsPerRun(100, func() {
		if err := f.Correct(meas, masked); err != nil {
			t.Fatal(err)
		}
		if err := f.Correct(meas, all); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Correct (alternating masked and full sets) allocates %v per run, want 0", n)
	}
}
