package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stat"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload (BENCHMARK.json's end_to_end list).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"missions_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_pct", "%"},
	{"diag_correct_pct", "%"},
}

// perLayer are the traced run's metrics (BENCHMARK.json's per_layer
// list). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"sim.tick_p50_us", "us"},
	{"sim.tick_p99_us", "us"},
	{"sim.ticks", "count"},
	{"source.sample_us", "us"},
	{"ekf.correct_us", "us"},
	{"ekf.predict_hybrid_us", "us"},
	{"vehicle.quad_step_us", "us"},
	{"vehicle.rover_step_us", "us"},
	{"detect.update_us", "us"},
	{"checkpoint.record_us", "us"},
	{"diagnosis.diagnose_us", "us"},
	{"diagnosis.passes", "count"},
	{"reconstruct.roll_forward_us", "us"},
	{"reconstruct.reconstructions", "count"},
	{"reconstruct.replayed_records", "count"},
	{"recovery.update_us", "us"},
	{"recovery.ticks", "count"},
	{"mat.dare_quad_ms", "ms"},
	{"mat.dare_rover_ms", "ms"},
	{"core.new_shared_ms", "ms"},
	{"engine.overhead_pct", "%"},
	{"campaign.overhead_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.client_ms", "ms"},
	{"service.requests", "count"},
	{"service.refused", "count"},
	{"trace.decode_ms", "ms"},
	{"telemetry.report_ms", "ms"},
	{"runtime.alloc_kb_per_mission", "KiB"},
	{"runtime.gc_count", "count"},
	{"layers.unattributed_pct", "%"},
	{"tracing.overhead_pct", "%"},
	{"machine.ref_kernel_ms", "ms"},
	{"machine.pace_ms", "ms"},
}

// outcome is what one workload run hands back to main.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	// wall holds the timed end-to-end metrics unscaled, as the wall
	// clock read them; e2e has them at the reference pace (pace.go).
	wall map[string]float64
	// pace are the run's pace samples in ms.
	pace []float64
	// work holds the exact work counts of the run; they repeat exactly
	// for a seed and expose a "speed-up" that does less work.
	work   map[string]int64
	checks map[string]bool
	notes  map[string]string
	// latencySamples is the number of latencies behind req_p50/p90.
	latencySamples int
	attempted      int
	failed         int
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		wall:   map[string]float64{},
		work:   map[string]int64{},
		checks: map[string]bool{},
		notes:  map[string]string{},
	}
}

// check records a named output check; a failed one counts toward failed.
func (o *outcome) check(name string, ok bool) {
	if prev, seen := o.checks[name]; seen {
		ok = ok && prev
	}
	o.checks[name] = ok
	if !ok {
		o.failed++
	}
}

func (o *outcome) failedPct() float64 {
	if o.attempted == 0 {
		return 0
	}
	return 100 * float64(o.failed) / float64(o.attempted)
}

// correct reports whether the run attempted work and nothing failed; a
// failed check counts as a failure.
func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine renders the result object every run ends with.
func finalLine(o *outcome, defs []metricDef, values map[string]float64) ([]byte, error) {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		ms[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.correct(), attempted, o.failed, ms})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fingerprint identifies the machine and the code a result came from.
// Results with different fingerprints are never compared.
type fingerprint struct {
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision when the build recorded one; SourceSHA
	// hashes the module's Go sources, which identifies the code in a
	// checkout that is not a git repository.
	Commit    string `json:"commit,omitempty"`
	SourceSHA string `json:"source_sha256"`
	// RefKernelMS times a fixed floating-point kernel at the start and
	// the end of the run, so a slow phase of a shared machine shows in
	// the record.
	RefKernelMS    float64 `json:"ref_kernel_ms"`
	RefKernelMSEnd float64 `json:"ref_kernel_ms_end"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SourceSHA:  sourceSHA("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				fp.Commit = kv.Value
			}
		}
	}
	fp.RefKernelMS = refKernelMS()
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceSHA hashes go.mod and every .go file under root, in path order,
// skipping build output.
func sourceSHA(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refKernelMS is the median of five timings of a fixed 96×96 matrix
// product, repeated 20 times.
func refKernelMS() float64 {
	const n = 96
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%17) * 0.25
		b[i] = float64(i%13) * 0.5
	}
	var times []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for k := 0; k < 20; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for l := 0; l < n; l++ {
						s += a[i*n+l] * b[l*n+j]
					}
					c[i*n+j] = s
				}
			}
		}
		times = append(times, ms(time.Since(t0)))
	}
	sink = c[n+1]
	return stat.Median(times)
}

var sink float64

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// memDelta samples the Go runtime's allocation and GC counters.
type memDelta struct{ alloc, gc uint64 }

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{alloc: m.TotalAlloc, gc: uint64(m.NumGC)}
}
