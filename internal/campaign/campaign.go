// Package campaign is the Monte-Carlo study layer (ROADMAP item 5): it
// turns a declarative sweep Spec into a pre-drawn job list, partitions
// the list into deterministic contiguous shards, executes each shard on
// any engine behind the unified execution seam (internal/engine),
// persists every finished shard's partial telemetry report atomically to
// a checkpoint directory, and merges the partials into one versioned
// study report.
//
// The whole layer rides on two invariants. First, the job list is a pure
// function of (Spec, Seed) — shards are re-derived from the spec on
// every run, never persisted, so a resumed process reconstructs exactly
// the work a killed one was doing. Second, the merge is exact and
// associative (internal/telemetry's integer aggregates), so the study
// report's bytes are invariant to shard size, worker count, engine
// choice, and interruption history: a study killed after any prefix of
// shards and resumed — any number of times, with any worker count —
// renders the same bytes as one uninterrupted monolithic run.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// StudyVersion is the study-report schema version; bump on any change to
// the Study field set or semantics.
const StudyVersion = 1

// Campaign is a validated spec plus its derived fingerprint. Run
// executes it; the zero value is not usable — construct with New.
type Campaign struct {
	spec Spec
	sha  string
	jobs int
}

// New normalizes and validates the spec and fixes the study fingerprint.
// The job list is drawn once to validate it and count it, then
// discarded: Run re-derives it, so a Campaign is cheap to hold.
func New(spec Spec) (*Campaign, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	sha, err := spec.sha256Hex()
	if err != nil {
		return nil, err
	}
	jobs, _, err := spec.build()
	if err != nil {
		return nil, err
	}
	return &Campaign{spec: spec, sha: sha, jobs: len(jobs)}, nil
}

// Spec returns the normalized spec.
func (c *Campaign) Spec() Spec { return c.spec }

// SpecSHA256 returns the hex fingerprint of the normalized spec.
func (c *Campaign) SpecSHA256() string { return c.sha }

// Jobs returns the total mission count of the study.
func (c *Campaign) Jobs() int { return c.jobs }

// Shard is one contiguous slice [Lo, Hi) of the study's job list.
type Shard struct {
	Index int
	Lo    int
	Hi    int
}

// shardRanges partitions n jobs into at most count balanced contiguous
// shards: the first n%count shards get one extra job. The layout is a
// pure function of (n, count), so every process partitions identically.
func shardRanges(n, count int) []Shard {
	if count <= 0 {
		count = 1
	}
	if count > n {
		count = n
	}
	out := make([]Shard, count)
	lo := 0
	for i := range out {
		size := n / count
		if i < n%count {
			size++
		}
		out[i] = Shard{Index: i, Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// Options configure one Run. None of them may change the study report's
// bytes — they select throughput, persistence, and interruption behavior
// only.
type Options struct {
	// Engine executes each shard; nil selects the per-goroutine runner.
	// Any engine must be byte-identical to it (the seam's contract).
	Engine engine.Engine
	// Workers is the per-shard parallelism; <= 0 uses all CPUs.
	Workers int
	// Shards partitions the job list; <= 0 runs one shard. More shards
	// mean finer-grained checkpoints (less work lost on interruption),
	// never different bytes.
	Shards int
	// Dir is the checkpoint directory; "" disables persistence. Each
	// finished shard's partial report is written atomically (temp file +
	// rename), so a kill at any instant leaves only complete checkpoints.
	Dir string
	// Resume reuses valid checkpoints found in Dir, skipping their
	// shards. Without it a Dir already holding checkpoints is refused, so
	// two studies cannot silently interleave in one directory.
	Resume bool
	// HaltAfter, when positive, stops the run with ErrHalted after that
	// many shards have been executed (not resumed) in this process — a
	// deterministic stand-in for kill -9 used by the resume tests and the
	// CI interrupt/resume replay.
	HaltAfter int
	// ShardDone, when non-nil, is called after each shard completes or is
	// skipped via resume, with the number of settled shards and the total.
	ShardDone func(done, total int)
	// Progress, when non-nil, receives per-mission completion counts
	// within the currently executing shard.
	Progress func(completed, total int)
}

// ErrHalted reports a run stopped by Options.HaltAfter with its
// checkpoints intact; resume to continue.
var ErrHalted = errors.New("campaign: halted by HaltAfter; resume to continue")

// Study is the versioned merged result of one campaign: the normalized
// spec, its fingerprint, and the merged telemetry report. It records
// nothing about how the run was partitioned, paralleled, or interrupted —
// the bytes are execution-history-invariant by construction.
type Study struct {
	Version    int               `json:"version"`
	Campaign   string            `json:"campaign"`
	SpecSHA256 string            `json:"spec_sha256"`
	Spec       Spec              `json:"spec"`
	Jobs       int               `json:"jobs"`
	Report     *telemetry.Report `json:"report"`
}

// WriteJSON renders the study as indented JSON with a trailing newline,
// deterministically (field order and float rendering are fixed by
// encoding/json).
func (s *Study) WriteJSON(w io.Writer) error {
	return writeJSON(w, s)
}

// Run executes the campaign: derive the job list, partition it, execute
// or resume each shard in order, checkpoint, merge. On interruption
// (context cancellation or HaltAfter) the error is returned with all
// completed checkpoints persisted; a later Run with Resume set picks up
// after them.
func (c *Campaign) Run(ctx context.Context, opt Options) (*Study, error) {
	jobs, groups, err := c.spec.build()
	if err != nil {
		return nil, err
	}
	shards := shardRanges(len(jobs), opt.Shards)
	if opt.Dir != "" {
		if err := prepareDir(opt.Dir, opt.Resume); err != nil {
			return nil, err
		}
	}
	parts := make([]*telemetry.Report, len(shards))
	executed := 0
	for si, sh := range shards {
		if opt.Dir != "" && opt.Resume {
			rep, ok, err := c.loadCheckpoint(opt.Dir, sh, len(shards))
			if err != nil {
				return nil, err
			}
			if ok {
				parts[si] = rep
				if opt.ShardDone != nil {
					opt.ShardDone(si+1, len(shards))
				}
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := c.runShard(ctx, sh, jobs, groups, opt)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("campaign: shard %d: %w", sh.Index, err)
		}
		if opt.Dir != "" {
			if err := c.saveCheckpoint(opt.Dir, sh, len(shards), rep); err != nil {
				return nil, err
			}
		}
		parts[si] = rep
		executed++
		if opt.ShardDone != nil {
			opt.ShardDone(si+1, len(shards))
		}
		if opt.HaltAfter > 0 && executed >= opt.HaltAfter && si < len(shards)-1 {
			return nil, ErrHalted
		}
	}
	meta := telemetry.Meta{
		Generator: "campaign",
		Missions:  len(jobs),
		Seed:      c.spec.Seed,
		Wind:      c.spec.Wind.Max,
	}
	merged, err := telemetry.MergeReports(meta, parts...)
	if err != nil {
		return nil, err
	}
	return &Study{
		Version:    StudyVersion,
		Campaign:   c.spec.Name,
		SpecSHA256: c.sha,
		Spec:       c.spec,
		Jobs:       len(jobs),
		Report:     merged,
	}, nil
}

// runShard executes one shard's job slice on the selected engine and
// aggregates its telemetry in submission order, attributing each mission
// to its condition's experiment group. The shard report's meta describes
// the shard; the study meta replaces it at merge.
func (c *Campaign) runShard(ctx context.Context, sh Shard, jobs []engine.Job, groups []string, opt Options) (*telemetry.Report, error) {
	eng := opt.Engine
	if eng == nil {
		eng = engine.Runner()
	}
	res, err := eng.Run(ctx, jobs[sh.Lo:sh.Hi], engine.Options{
		Workers: opt.Workers, Progress: opt.Progress,
	})
	if err != nil {
		return nil, err
	}
	col := telemetry.NewCollector()
	for i := range res {
		col.Begin(groups[sh.Lo+i])
		col.Add(res[i].Telemetry)
	}
	return col.Report(telemetry.Meta{
		Generator: "campaign-shard",
		Missions:  sh.Hi - sh.Lo,
		Seed:      c.spec.Seed,
		Wind:      c.spec.Wind.Max,
	})
}
