package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/stat"
	"repro/internal/vehicle"
)

// studyWorkload is one campaign workload: a sequence of small grid
// studies (rounds), each drawn from its own seed and run through
// campaign.Run on the default engine until the measured time is up.
//
// Rounds are grid-mode studies, not random-mode ones: per-mission cost
// differs tenfold between profiles, so a random-mode draw of the classes
// moves missions_per_s by more than any useful bound from seed to seed.
// The grid fixes the class proportions; the seed still draws every
// mission's path, wind, attack window, targets and noise.
type studyWorkload struct {
	name          string
	profiles      []string
	attackSensors []int
	perCondition  int
	shards        int
	workers       int
	checkpoint    bool
	maxSec        float64
	onset         campaign.Range
	duration      campaign.Range
	// serviceLeg adds the mission-service layers to the traced run.
	serviceLeg bool
}

var quietQuad = studyWorkload{
	name:          "quiet-quad",
	profiles:      []string{"Pixhawk", "Tarot", "Sky-Viper", "ArduCopter"},
	attackSensors: []int{0},
	perCondition:  2,
	shards:        1,
	workers:       1,
}

var attackRecovery = studyWorkload{
	name:          "attack-recovery",
	profiles:      []string{"Pixhawk", "Tarot", "Sky-Viper", "ArduCopter", "AionR1", "ArduRover"},
	attackSensors: []int{1, 2, 3},
	perCondition:  1,
	shards:        3,
	workers:       runtime.NumCPU(),
	checkpoint:    true,
	maxSec:        60,
	onset:         campaign.Range{Min: 5, Max: 8},
	duration:      campaign.Range{Min: 10, Max: 15},
	serviceLeg:    true,
}

func runQuietQuad(opt runOptions) (*outcome, error)      { return quietQuad.run(opt) }
func runAttackRecovery(opt runOptions) (*outcome, error) { return attackRecovery.run(opt) }

// roundSeeds derives the per-round study seeds from the run seed.
func roundSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// spec is round r's study.
func (w studyWorkload) spec(seed int64) campaign.Spec {
	return campaign.Spec{
		Name:          w.name,
		Seed:          seed,
		Mode:          campaign.ModeGrid,
		Missions:      w.perCondition,
		Profiles:      w.profiles,
		AttackSensors: w.attackSensors,
		Onset:         w.onset,
		Duration:      w.duration,
		MaxSec:        w.maxSec,
	}
}

// studySHA hashes a study's rendered bytes.
func studySHA(st *campaign.Study) (string, error) {
	h := sha256.New()
	if err := st.WriteJSON(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// errCaptured stops a capture run once the job list has been seen.
var errCaptured = errors.New("job list captured")

// captureEngine records the job list handed to it and runs nothing.
type captureEngine struct{ h hash.Hash }

func (captureEngine) Name() string { return "capture" }

func (e captureEngine) Run(_ context.Context, jobs []engine.Job, _ engine.Options) ([]sim.Result, error) {
	for _, j := range jobs {
		c := j.Cfg
		fmt.Fprintf(e.h, "%s|%s|%d|%v|%v|%v|%v|%v\n", j.Label, c.Profile.Name, c.Seed,
			c.WindMean, c.WindGust, c.WindDir, c.Plan.Waypoints, c.Attacks != nil)
	}
	return nil, errCaptured
}

// jobsSHA fingerprints the job list of the study drawn from seed: every
// mission's label, profile, seed, wind, waypoints and whether it is
// attacked. The same seed gives the same digest.
func (w studyWorkload) jobsSHA(seed int64) (string, error) {
	c, err := campaign.New(w.spec(seed))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = c.Run(context.Background(), campaign.Options{Engine: captureEngine{h}, Shards: 1})
	if !errors.Is(err, errCaptured) {
		return "", fmt.Errorf("capture run: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// roundResult is one executed study.
type roundResult struct {
	study *campaign.Study
	sha   string
	wall  time.Duration
}

// runStudy executes one round on eng with the given worker count.
func (w studyWorkload) runStudy(opt runOptions, seed int64, eng engine.Engine, workers int, tag string) (roundResult, error) {
	c, err := campaign.New(w.spec(seed))
	if err != nil {
		return roundResult{}, err
	}
	copt := campaign.Options{Engine: eng, Workers: workers, Shards: w.shards}
	if w.checkpoint {
		copt.Dir = filepath.Join(opt.tmpDir, "ckpt-"+tag)
		defer os.RemoveAll(copt.Dir)
	}
	start := time.Now()
	st, err := c.Run(context.Background(), copt)
	wall := time.Since(start)
	if err != nil {
		return roundResult{}, err
	}
	sha, err := studySHA(st)
	return roundResult{study: st, sha: sha, wall: wall}, err
}

// stampedSource notes when a mission took its first and its last sensor
// reading: one clock read per tick and nothing else, so the untraced
// rounds can report per-mission latency.
type stampedSource struct {
	inner       sensors.Source
	first, last time.Time
}

func (s *stampedSource) Sample(t sensors.Tick) (sensors.Reading, error) {
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
	}
	s.last = now
	return s.inner.Sample(t)
}

func (s *stampedSource) AttackMounted() bool { return s.inner.AttackMounted() }

// stampedEngine runs the default engine with a stampedSource on every
// job and appends each mission's latency in ms to lat.
type stampedEngine struct{ lat *[]float64 }

func (stampedEngine) Name() string { return "runner" }

func (e stampedEngine) Run(ctx context.Context, jobs []engine.Job, opt engine.Options) ([]sim.Result, error) {
	srcs := make([]*stampedSource, len(jobs))
	for i := range jobs {
		srcs[i] = &stampedSource{inner: takeSimSource(&jobs[i].Cfg)}
		jobs[i].Cfg.Source = srcs[i]
	}
	res, err := engine.Runner().Run(ctx, jobs, opt)
	for _, s := range srcs {
		*e.lat = append(*e.lat, ms(s.last.Sub(s.first)))
	}
	return res, err
}

// takeSimSource builds the simulator source the mission would build for
// itself and moves the job's attack and dropout settings into it: a
// Config that carries a Source must not carry them too.
func takeSimSource(cfg *sim.Config) *sim.SimSource {
	src := sim.NewSimSource(sim.SourceConfig{
		Profile:        cfg.Profile,
		Seed:           cfg.Seed,
		Attacks:        cfg.Attacks,
		DropoutAt:      cfg.DropoutAt,
		DropoutSensors: cfg.DropoutSensors,
	})
	cfg.Attacks, cfg.DropoutAt, cfg.DropoutSensors = nil, 0, nil
	return src
}

// setup is the workload's set-up: the shared per-profile caches every
// mission references and the first study's validation and job draw. It
// returns the total and appends each core.NewShared in ms to shared.
func (w studyWorkload) setup(seed int64, shared *[]float64) (time.Duration, error) {
	t0 := time.Now()
	for _, name := range w.profiles {
		p, err := vehicle.LookupProfile(vehicle.ProfileName(name))
		if err != nil {
			return 0, err
		}
		s := time.Now()
		if _, err := core.NewShared(p, 0.01); err != nil {
			return 0, err
		}
		*shared = append(*shared, ms(time.Since(s)))
	}
	if _, err := campaign.New(w.spec(seed)); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// Set-up takes a few tens of milliseconds, and the machine's speed
// drifts over seconds, so set-up is repeated: setupFirst times before
// the first round and once every setupEvery rounds after it, outside
// the round timings, each between two pace samples. setup_s is the
// median at the reference pace.
const (
	setupFirst = 5
	setupEvery = 4
)

// warmEngine runs one short mission per profile through the default
// engine so the process-wide caches it attaches exist before timing.
func warmEngine(profiles []string) error {
	var jobs []engine.Job
	for _, name := range profiles {
		p, err := vehicle.LookupProfile(vehicle.ProfileName(name))
		if err != nil {
			return err
		}
		jobs = append(jobs, engine.Job{Label: "warm " + name, Cfg: sim.Config{Profile: p, Strategy: core.StrategyDeLorean, Plan: mission.NewStraight(10, p.CruiseAltitude), MaxSec: 0.5}})
	}
	_, err := engine.Runner().Run(context.Background(), jobs, engine.Options{Workers: 1})
	return err
}

func (w studyWorkload) run(opt runOptions) (*outcome, error) {
	out := newOutcome()
	seeds := roundSeeds(opt.seed, 4096)
	pc := newPacer(w.workers)
	var setupS, setupWallS, sharedMS []float64
	// timedSetup runs one set-up after the pace sample before and
	// returns the pace sample it takes after it.
	timedSetup := func(before float64) (float64, error) {
		d, err := w.setup(seeds[0], &sharedMS)
		if err != nil {
			return 0, err
		}
		after := pc.sample()
		setupWallS = append(setupWallS, d.Seconds())
		setupS = append(setupS, d.Seconds()*scale(before, after))
		return after, nil
	}
	pace := pc.sample()
	for i := 0; i < setupFirst; i++ {
		var err error
		if pace, err = timedSetup(pace); err != nil {
			return nil, err
		}
	}
	if err := warmEngine(w.profiles); err != nil {
		return nil, err
	}

	tr := newTracer()
	traced := &tracedEngine{inner: engine.Runner(), t: tr}

	var (
		plainWall, tracedWall time.Duration
		// pacedS is plainWall at the reference pace.
		pacedS                 float64
		plainJobs, tracedJobs  int
		missionLat, missionRaw []float64
		succeeded, good        int
		totals                 = map[string]int64{}
		firstSHA               string
	)
	mem0 := readMem()
	pace = pc.sample()
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		if r >= len(seeds) {
			return nil, fmt.Errorf("more than %d rounds", len(seeds))
		}
		if r > 0 && r%setupEvery == 0 {
			var err error
			if pace, err = timedSetup(pace); err != nil {
				return nil, err
			}
		}
		lat0 := len(missionLat)
		plain, err := w.runStudy(opt, seeds[r], stampedEngine{&missionLat}, w.workers, fmt.Sprint("p", r))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		after := pc.sample()
		f := scale(pace, after)
		pace = after
		pacedS += plain.wall.Seconds() * f
		for i := lat0; i < len(missionLat); i++ {
			missionRaw = append(missionRaw, missionLat[i])
			missionLat[i] *= f
		}
		if r == 0 {
			firstSHA = plain.sha
		}
		plainWall += plain.wall
		plainJobs += plain.study.Jobs
		t := plain.study.Report.Totals
		out.attempted += plain.study.Jobs
		out.check("study_jobs_complete", t.Jobs == plain.study.Jobs && plain.study.Jobs == len(w.profiles)*len(w.attackSensors)*w.perCondition)
		succeeded += t.Succeeded
		good += t.Diagnosis.TruePositives + t.Diagnosis.TrueNegatives
		totals["rounds"]++
		totals["missions"] += int64(t.Jobs)
		totals["sim.ticks"] += t.Ticks
		totals["diagnosis.passes"] += int64(t.Counters.DiagnosisPasses)
		totals["recovery.ticks"] += int64(t.Counters.RecoveryTicks)
		totals["reconstruct.reconstructions"] += int64(t.Counters.Reconstructions)
		totals["reconstruct.replayed_records"] += int64(t.Counters.ReplayedRecords)
		totals["recovery.episodes"] += int64(t.Counters.RecoveryEpisodes)

		if opt.trace {
			id, s0 := tr.begin("campaign.run", 0)
			traced.parent = id
			tres, err := w.runStudy(opt, seeds[r], traced, w.workers, fmt.Sprint("t", r))
			d := tr.end(id, s0)
			if err != nil {
				return nil, fmt.Errorf("traced round %d: %w", r, err)
			}
			tr.mu.Lock()
			tr.campaign.add(d)
			tr.mu.Unlock()
			tracedWall += tres.wall
			tracedJobs += tres.study.Jobs
			out.check("traced_bytes_equal", tres.sha == plain.sha)
			pace = pc.sample()
		}
	}
	mem1 := readMem()

	// Determinism across worker counts: round 0 again at the other
	// worker count, on the bare default engine, must render the same
	// study bytes.
	other := 1
	if w.workers == 1 {
		other = runtime.NumCPU()
	}
	again, err := w.runStudy(opt, seeds[0], engine.Runner(), other, "w")
	if err != nil {
		return nil, err
	}
	out.check("workers_bytes_equal", again.sha == firstSHA)
	out.notes["round0_study_sha256"] = firstSHA
	if out.notes["round0_jobs_sha256"], err = w.jobsSHA(seeds[0]); err != nil {
		return nil, err
	}
	out.notes["workers"] = fmt.Sprintf("%d (check at %d)", w.workers, other)

	out.e2e["setup_s"] = stat.Median(setupS)
	out.layer["core.new_shared_ms"] = stat.Median(sharedMS)
	out.latencySamples = len(missionLat)
	out.e2e["missions_per_s"] = float64(plainJobs) / pacedS
	out.e2e["req_p50_ms"] = stat.Quantile(missionLat, 0.5)
	out.e2e["req_p90_ms"] = stat.Quantile(missionLat, 0.9)
	out.wall["setup_s"] = stat.Median(setupWallS)
	out.wall["missions_per_s"] = float64(plainJobs) / plainWall.Seconds()
	out.wall["req_p50_ms"] = stat.Quantile(missionRaw, 0.5)
	out.wall["req_p90_ms"] = stat.Quantile(missionRaw, 0.9)
	out.pace = pc.samples
	out.layer["machine.pace_ms"] = stat.Median(pc.samples)
	out.e2e["success_pct"] = 100 * float64(succeeded) / float64(plainJobs)
	out.e2e["diag_correct_pct"] = 100 * float64(good) / float64(plainJobs)
	for k, v := range totals {
		out.work[k] = v
	}
	ran := plainJobs + tracedJobs
	out.layer["runtime.alloc_kb_per_mission"] = float64(mem1.alloc-mem0.alloc) / 1024 / float64(ran)
	out.layer["runtime.gc_count"] = float64(mem1.gc - mem0.gc)
	out.layer["sim.ticks"] = float64(totals["sim.ticks"])
	out.layer["diagnosis.passes"] = float64(totals["diagnosis.passes"])
	out.layer["recovery.ticks"] = float64(totals["recovery.ticks"])
	out.layer["reconstruct.reconstructions"] = float64(totals["reconstruct.reconstructions"])
	out.layer["reconstruct.replayed_records"] = float64(totals["reconstruct.replayed_records"])

	if opt.trace {
		out.layer["tracing.overhead_pct"] = 100 * (tracedWall.Seconds()/float64(tracedJobs)/(plainWall.Seconds()/float64(plainJobs)) - 1)
		tr.recoveryTicks, tr.replayedRecords = totals["recovery.ticks"], totals["reconstruct.replayed_records"]
		tr.layerMetrics(out, w.workers)
		if err := runLadder(out, tr); err != nil {
			return nil, err
		}
		attributeLayers(out, tr)
		if w.serviceLeg {
			if err := serviceLeg(out, opt.seed); err != nil {
				return nil, err
			}
		}
		if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", w.name, opt.seed))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// layerMetrics turns the folded spans into per-layer metrics.
func (t *tracer) layerMetrics(out *outcome, workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out.layer["sim.tick_p50_us"] = t.ticks.quantileUS(0.5)
	out.layer["sim.tick_p99_us"] = t.ticks.quantileUS(0.99)
	out.layer["source.sample_us"] = t.sample.meanUS()
	out.layer["detect.update_us"] = t.detect.meanUS()
	out.layer["diagnosis.diagnose_us"] = t.diagnose.meanUS()
	if t.engine.total > 0 {
		busy := t.missions.total.Seconds()
		capacity := t.engine.total.Seconds() * float64(workers)
		out.layer["engine.overhead_pct"] = 100 * (1 - busy/capacity)
	}
	if t.campaign.n > 0 {
		out.layer["campaign.overhead_ms"] = ms(t.campaign.total-t.engine.total) / float64(t.campaign.n)
	}
}
