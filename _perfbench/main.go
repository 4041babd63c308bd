// Command perfbench is the repository's end-to-end benchmark. It drives
// the DeLorean reproduction only through its public packages — campaign
// studies on the default engine and the mission service behind a
// loopback listener — and prints every metric by name with its unit as
// the last line of standard output, after checking that the outputs are
// deterministic.
//
//	perfbench --workload quiet-quad --seed 1 --seconds 25 --trace 0
//
// With --trace 1 the same workload runs with span-recording decorators
// around the calls into each layer and prints the per-layer metrics
// instead. README.md documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one named traffic mix; BENCHMARK.json says why each was
// chosen.
type workload struct {
	name string
	run  func(opt runOptions) (*outcome, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workload{
	{"quiet-quad", runQuietQuad},
	{"attack-recovery", runAttackRecovery},
}

// runOptions are the command-line inputs every workload receives.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	// tmpDir is a private directory under the checkout for checkpoints;
	// removed on exit.
	tmpDir string
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || traced < 0 || traced > 1 {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmpDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)

	fp := takeFingerprint()
	start := time.Now()
	out, err := w.run(runOptions{seed: seed, seconds: seconds, trace: traced == 1, tmpDir: tmpDir})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fp.RefKernelMSEnd = refKernelMS()
	out.layer["machine.ref_kernel_ms"] = (fp.RefKernelMS + fp.RefKernelMSEnd) / 2
	out.e2e["peak_rss_mb"] = peakRSSMB()

	metrics := out.e2e
	defs := endToEnd
	if traced == 1 {
		metrics, defs = out.layer, perLayer
	}
	final, err := finalLine(out, defs, metrics)
	if err != nil {
		return err
	}
	record := map[string]any{
		"workload":        name,
		"seed":            seed,
		"trace":           traced,
		"wall_s":          time.Since(start).Seconds(),
		"fingerprint":     fp,
		"work":            out.work,
		"checks":          out.checks,
		"end_to_end":      out.e2e,
		"wall_clock":      out.wall,
		"pace_ms":         paceSummary(out.pace),
		"notes":           out.notes,
		"failed_pct":      out.failedPct(),
		"latency_samples": out.latencySamples,
	}
	if traced == 1 {
		record["per_layer"] = out.layer
	}
	rec, err := json.Marshal(map[string]any{"record": record})
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	fmt.Println(string(final))
	return nil
}
