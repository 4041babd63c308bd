package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/stat"
)

func TestPercentilesAtKnownInputs(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	}
	for _, c := range cases {
		if got := stat.Quantile(xs, c.q); got != c.want {
			t.Errorf("stat.Quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := stat.Quantile(nil, 0.5); got != 0 {
		t.Errorf("stat.Quantile(empty) = %v, want 0", got)
	}
	if xs[0] != 7 {
		t.Errorf("percentile reordered its input")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := 0; i < 90; i++ {
		h.add(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.add(1 * time.Millisecond)
	}
	// Buckets are 5% wide, so a quantile is within 5% of the true value.
	for _, c := range []struct{ q, want float64 }{{0.5, 10}, {0.9, 10}, {0.99, 1000}} {
		got := h.quantileUS(c.q)
		if got < c.want/1.05 || got > c.want*1.05 {
			t.Errorf("quantileUS(%v) = %v, want %v within 5%%", c.q, got, c.want)
		}
	}
}

// metricName is the name rule BENCHMARK.json's consumers enforce.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", "a b", "p99/ms", "_x", "é"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted as a metric name", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []metric
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

func TestSameSeedSameJobs(t *testing.T) {
	for _, w := range []studyWorkload{quietQuad, attackRecovery} {
		a, err := w.jobsSHA(roundSeeds(7, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.jobsSHA(roundSeeds(7, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.jobsSHA(roundSeeds(8, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: same seed gave job-list digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w.name)
		}
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b, c := legSpecs(7), legSpecs(7), legSpecs(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different service requests")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same service requests")
	}
	if len(a) != len(legClasses)*legSpecsPerClass {
		t.Errorf("%d specs, want %d", len(a), len(legClasses)*legSpecsPerClass)
	}
}

func TestPaceScale(t *testing.T) {
	if got := scale(refPaceMS, refPaceMS); got != 1 {
		t.Errorf("scale at the reference pace = %v, want 1", got)
	}
	// A machine running at half speed takes twice as long on the kernel,
	// so its timings are halved.
	if got := scale(2*refPaceMS, 2*refPaceMS); got != 0.5 {
		t.Errorf("scale at half speed = %v, want 0.5", got)
	}
	p := newPacer(2)
	if m := p.sample(); m <= 0 || len(p.samples) != 1 {
		t.Errorf("pace sample %v ms, %d recorded", m, len(p.samples))
	}
	// The kernel's result does not depend on when it ran.
	a, b := newPaceKernel(), newPaceKernel()
	a.run()
	b.run()
	if !reflect.DeepEqual(a.x, b.x) || !sort.Float64sAreSorted(a.x) {
		t.Error("pace kernel is not deterministic")
	}
}
