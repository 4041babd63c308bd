package recovery

// Layer benchmarks for the Riccati solves behind LQR recovery: the quad's
// hover gain (solved once per profile) and the rover gain the controller
// re-solves whenever heading or speed drifts during a recovery episode.

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/vehicle"
)

func BenchmarkSolveDAREQuad(b *testing.B) {
	a, bm, q, r := quadModel(vehicle.MustProfile(vehicle.ArduCopter).Quad, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.SolveDARE(a, bm, q, r, 10000, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDARERover cycles through operating points a recovering
// rover visits: eight headings at three speeds.
func BenchmarkSolveDARERover(b *testing.B) {
	rv := vehicle.MustProfile(vehicle.ArduRover).Rover
	type problem struct{ a, b, q, r *mat.Mat }
	var ps []problem
	for h := 0; h < 8; h++ {
		for _, v := range []float64{0.3, 1.5, 3} {
			a, bm, q, r := roverModel(rv, 0.8*float64(h), v, 0.01)
			ps = append(ps, problem{a, bm, q, r})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		if _, err := mat.SolveDARE(p.a, p.b, p.q, p.r, 10000, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
