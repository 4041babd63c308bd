package sim

import (
	"math"
	"testing"

	"repro/internal/mission"
	"repro/internal/vehicle"
)

// A non-finite truth state is divergence, for quads and rovers alike:
// NaN defeats every magnitude comparison in crashCheck, so it needs its
// own test.
func TestCrashCheckNonFiniteDiverges(t *testing.T) {
	nan := math.NaN()
	for _, name := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		p := vehicle.MustProfile(name)
		for _, c := range []struct {
			what string
			s    vehicle.State
		}{
			{"NaN position", vehicle.State{X: nan, Y: 3, Z: 10}},
			{"NaN roll", vehicle.State{X: 1, Y: 3, Z: 10, Roll: nan}},
			{"infinite yaw", vehicle.State{Z: 10, Yaw: math.Inf(-1)}},
		} {
			var tilt float64
			crashed, why := crashCheck(p, c.s, mission.PhaseCruise, &tilt, 0.01)
			if !crashed || why != "diverged" {
				t.Errorf("%s, %s: crashCheck = %v %q, want true \"diverged\"", name, c.what, crashed, why)
			}
		}
		var tilt float64
		if crashed, why := crashCheck(p, vehicle.State{X: 1, Y: 3, Z: 10}, mission.PhaseCruise, &tilt, 0.01); crashed {
			t.Errorf("%s: finite level state classified as crashed (%q)", name, why)
		}
	}
}
