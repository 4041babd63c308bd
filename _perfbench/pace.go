package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/stat"
)

// The machine the benchmark runs on is a few cores of a shared host, and
// its speed swings by up to two times over tens of seconds as other
// tenants come and go; CPU time swings with it, so it is contention for
// the cores, not time taken away from the process. A run that happens to
// fall in a slow phase would read as a regression of the program.
//
// So every timing is taken between pace samples: a fixed kernel that
// belongs to the benchmark, timed on as many goroutines as the workload
// runs workers, just before and just after the timed work.
// The timing is reported at the reference pace — scaled by
// refPaceMS / (mean of the two samples) — which is what it would read
// on the reference machine in its fast phase. The program cannot change
// the kernel, so a slower program still reads slower; the record keeps
// the unscaled wall-clock figures beside the scaled ones.

// refPaceMS is the pace kernel's time on the 2-vCPU machine the
// benchmark was tuned on, in its fast phase.
const refPaceMS = 4.5

// paceKernel sorts a fixed 2000-element slice of float64s 30 times.
// Among the kernels tried while tuning (dense matrix products, a random
// walk over 16 MiB, small allocated matrices with sin and sqrt, and this
// sort), the sort's time tracked the missions' time most closely across
// the machine's phases; the floating-point kernels slowed about twice as
// much as the missions did. It is allocation-free after its first call.
type paceKernel struct{ x []float64 }

func newPaceKernel() *paceKernel { return &paceKernel{x: make([]float64, 2000)} }

func (k *paceKernel) run() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < 30; rep++ {
		for i := range k.x {
			k.x[i] = float64((i*7919 + rep*31) % 2003)
		}
		sort.Float64s(k.x)
	}
	return time.Since(t0)
}

// pacer takes pace samples on a fixed number of goroutines at once.
type pacer struct {
	kernels []*paceKernel
	// samples are every sample's mean kernel time in ms, in order.
	samples []float64
}

func newPacer(goroutines int) *pacer {
	p := &pacer{kernels: make([]*paceKernel, goroutines)}
	for i := range p.kernels {
		p.kernels[i] = newPaceKernel()
	}
	return p
}

// sample runs the kernel on every goroutine at once and returns the mean
// time in ms.
func (p *pacer) sample() float64 {
	times := make([]time.Duration, len(p.kernels))
	var wg sync.WaitGroup
	for i, k := range p.kernels {
		wg.Add(1)
		go func(i int, k *paceKernel) {
			defer wg.Done()
			times[i] = k.run()
		}(i, k)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	m := ms(sum) / float64(len(times))
	p.samples = append(p.samples, m)
	return m
}

// scale is the factor that takes a timing made between pace samples
// before and after to the reference pace.
func scale(before, after float64) float64 { return 2 * refPaceMS / (before + after) }

// paceSummary is what the record keeps of the pace samples.
func paceSummary(samples []float64) map[string]float64 {
	if len(samples) == 0 {
		return nil
	}
	return map[string]float64{
		"samples": float64(len(samples)),
		"p10":     stat.Quantile(samples, 0.1),
		"median":  stat.Median(samples),
		"p90":     stat.Quantile(samples, 0.9),
	}
}
