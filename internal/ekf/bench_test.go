package ekf_test

// Hot-path benchmarks for the EKF step cycle. These use only the filter's
// public API, so scripts/bench_compare.sh can run the identical file
// against the pre-optimization tree for before/after numbers.

import (
	"testing"

	"repro/internal/ekf"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// benchFilter returns a warmed quad filter plus a steady-state
// measurement and the full active sensor set.
func benchFilter() (*ekf.Filter, sensors.PhysState, sensors.TypeSet) {
	return benchFilterFor(vehicle.ArduCopter)
}

// benchFilterFor is benchFilter for any profile.
func benchFilterFor(id vehicle.ProfileName) (*ekf.Filter, sensors.PhysState, sensors.TypeSet) {
	prof := vehicle.MustProfile(id)
	f := ekf.New(prof)
	f.Init(vehicle.State{Z: 10})
	meas := sensors.TruePhysState(vehicle.State{Z: 10}, [3]float64{}, sensors.BodyField(0))
	active := sensors.NewTypeSet(sensors.AllTypes()...)
	f.Predict(vehicle.Input{Thrust: 9}, 0.01)
	_ = f.Correct(meas, active)
	return f, meas, active
}

func BenchmarkEKFPredict(b *testing.B) {
	f, _, _ := benchFilter()
	u := vehicle.Input{Thrust: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(u, 0.01)
	}
}

func BenchmarkEKFPredictHybrid(b *testing.B) {
	f, meas, active := benchFilter()
	u := vehicle.Input{Thrust: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictHybrid(u, meas, active, 0.01)
	}
}

func BenchmarkEKFCorrect(b *testing.B) {
	f, meas, active := benchFilter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Correct(meas, active); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEKFCorrectMasked is the recovery path: GPS isolated, so the
// correction runs on the barometer, magnetometer and gyro rows.
func BenchmarkEKFCorrectMasked(b *testing.B) {
	f, meas, active := benchFilter()
	masked := active.Clone()
	delete(masked, sensors.GPS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Correct(meas, masked); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEKFCorrectRover corrects a ground rover, which carries no
// roll/pitch rows.
func BenchmarkEKFCorrectRover(b *testing.B) {
	f, meas, active := benchFilterFor(vehicle.ArduRover)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Correct(meas, active); err != nil {
			b.Fatal(err)
		}
	}
}
