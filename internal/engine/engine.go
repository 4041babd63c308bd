// Package engine is the mission-execution seam: one interface over the
// per-goroutine parallel runner (internal/runner), plus an adapter that
// streams jobs through a long-lived sharded runner.Pool for the mission
// service. Both attach the process-wide core.Shared caches (AttachShared)
// to every job, so no consumer needs its own cache wiring.
//
// The seam's contract is the one the runner and the pool both honor:
// jobs are pre-drawn and fully seeded before submission, results are
// indexed by submission order, telemetry is reduced strictly in
// submission order, and the lowest-indexed failure is the reported error.
// Consequently execution is byte-identical at any worker count or pool
// shard count, and the Engine interface lets the campaign layer
// (internal/campaign) and instrumentation wrap the runner without
// changing a byte.
package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Job is one pre-drawn mission, identical to the runner's job unit: a
// fully specified sim.Config carrying its own derived seed and its own
// stateful collaborators, shared with no other job.
type Job = runner.Job

// Options carry the execution knobs (workers, progress, telemetry). None
// of them may change output bytes — they trade wall-clock time only.
type Options = runner.Options

// Engine executes pre-drawn seeded jobs and reduces their results and
// telemetry in submission order. Implementations must be byte-identical
// to the runner: for the same job list, the result slice, the reported
// error (lowest-indexed failure), and the telemetry reduce order match.
type Engine interface {
	// Name identifies the engine.
	Name() string
	// Run executes the jobs and returns their results indexed by
	// submission order. On error the lowest-indexed failure is returned;
	// successful entries of the result slice are still valid. Cancelling
	// ctx abandons the sweep with ctx.Err().
	Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error)
}

// Runner returns the per-goroutine parallel runner engine — one
// goroutine per in-flight mission.
func Runner() Engine { return runnerEngine{} }

// AttachShared points every job whose config has no shared caches yet at
// the process-wide per-(profile, dt) caches (core.SharedFor), so a
// sweep's missions reference one DARE solution, one EKF covariance
// schedule, and one compiled diagnosis graph spec instead of rebuilding
// them per mission. Results are bit-identical with or without the
// caches; a profile whose caches cannot be built simply runs unshared,
// surfacing any real defect as the usual per-mission construction error.
func AttachShared(jobs []Job) {
	for i := range jobs {
		cfg := &jobs[i].Cfg
		if cfg.Shared != nil {
			continue
		}
		if sh, err := core.SharedFor(cfg.Profile, cfg.DT); err == nil {
			cfg.Shared = sh
		}
	}
}

// runnerEngine adapts runner.Run to the seam.
type runnerEngine struct{}

func (runnerEngine) Name() string { return "runner" }

func (runnerEngine) Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	AttachShared(jobs)
	return runner.Run(ctx, jobs, opt)
}
