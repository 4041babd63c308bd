package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// suite builds a deterministic mixed-profile job list — short real
// missions, attacked and clean, every draw derived from one master seed —
// fresh stateful collaborators per call so the same suite can be executed
// independently by every engine.
func suite(t testing.TB, n int) []Job {
	t.Helper()
	profiles := []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover}
	rng := rand.New(rand.NewSource(7))
	jobs := make([]Job, n)
	for i := range jobs {
		p := vehicle.MustProfile(profiles[i%len(profiles)])
		cfg := sim.Config{
			Profile:   p,
			Plan:      mission.NewStraight(5, 10),
			Strategy:  core.StrategyDeLorean,
			Delta:     core.DefaultDelta(p),
			WindowSec: 5,
			WindMean:  rng.Float64() * 2,
			WindGust:  0.3,
			WindDir:   rng.Float64() * 6.28,
			Seed:      rng.Int63(),
			MaxSec:    4,
		}
		if i%3 == 0 {
			targets := attack.RandomTargets(rng, 1)
			sda := attack.New(rng, attack.DefaultParams(), targets, 1.0, 2.5)
			cfg.Attacks = attack.NewSchedule(sda)
		} else {
			// Keep the master rng draw count independent of which jobs
			// carry attacks.
			_ = attack.RandomTargets(rng, 1)
			_ = attack.New(rng, attack.DefaultParams(), nil, 1.0, 2.5)
		}
		jobs[i] = Job{Label: fmt.Sprintf("suite/%d", i), Cfg: cfg}
	}
	return jobs
}

// report renders a collector's telemetry report.
func report(t *testing.T, col *telemetry.Collector) []byte {
	t.Helper()
	rep, err := col.Report(telemetry.Meta{Generator: "engine-test"})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("write report: %v", err)
	}
	return buf.Bytes()
}

// runOn executes a fresh suite on the runner engine and renders its
// telemetry report.
func runOn(t *testing.T, n int, opt Options) ([]sim.Result, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	col.Begin("equiv")
	opt.Telemetry = col
	res, err := Runner().Run(context.Background(), suite(t, n), opt)
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	return res, report(t, col)
}

// drain submits jobs to a fresh pool of the given shard count, the way
// the mission service does, and collects every released index's result
// and error. It fails the test unless Ready yields exactly 0..n-1 in
// order.
func drain(t *testing.T, ctx context.Context, shards int, jobs []Job) ([]sim.Result, []error) {
	t.Helper()
	p := runner.NewPool(shards, 64)
	defer p.Close()
	st, err := NewPool(p).Submit(ctx, jobs)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	next := 0
	for i := range st.Ready() {
		if i != next {
			t.Fatalf("stream released %d, want %d", i, next)
		}
		next++
		if errs[i] = st.Err(i); errs[i] == nil {
			res[i] = st.Result(i)
		}
	}
	if next != len(jobs) {
		t.Fatalf("stream released %d indices, want %d", next, len(jobs))
	}
	return res, errs
}

// TestEnginesByteIdentical is the seam's headline contract: for the same
// pre-drawn job list, the runner engine and the pool (its stream folded
// in release order) produce deeply equal results and a byte-identical
// telemetry report, at 1 and 4 workers or pool shards.
func TestEnginesByteIdentical(t *testing.T) {
	const n = 10
	wantRes, wantRep := runOn(t, n, Options{Workers: 1})
	check := func(t *testing.T, gotRes []sim.Result, gotRep []byte) {
		t.Helper()
		if len(gotRes) != len(wantRes) {
			t.Fatalf("results = %d, want %d", len(gotRes), len(wantRes))
		}
		for i := range wantRes {
			if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
				t.Errorf("job %d: result diverged from the workers=1 runner reference", i)
			}
		}
		if !bytes.Equal(gotRep, wantRep) {
			t.Error("telemetry report differs from the workers=1 runner reference")
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("runner/workers=%d", workers), func(t *testing.T) {
			gotRes, gotRep := runOn(t, n, Options{Workers: workers})
			check(t, gotRes, gotRep)
		})
		t.Run(fmt.Sprintf("pool/workers=%d", workers), func(t *testing.T) {
			gotRes, errs := drain(t, context.Background(), workers, suite(t, n))
			col := telemetry.NewCollector()
			col.Begin("equiv")
			for i := range gotRes {
				if errs[i] != nil {
					t.Fatalf("job %d: %v", i, errs[i])
				}
				col.Add(gotRes[i].Telemetry)
			}
			check(t, gotRes, report(t, col))
		})
	}
}

// brokenSuite is a 6-job suite whose jobs 2 and 4 fail validation.
func brokenSuite(t *testing.T) []Job {
	t.Helper()
	jobs := suite(t, 6)
	jobs[2].Label = "suite/broken-a"
	jobs[2].Cfg.DT = -1 // rejected by sim.Config.Validate
	jobs[4].Label = "suite/broken-b"
	jobs[4].Cfg.DT = -1
	return jobs
}

// TestEnginesLowestIndexedError pins the failure contract: the runner
// reports the lowest-indexed failure with the job's label, the pool
// fails exactly the broken indices, and surviving jobs still carry valid
// results on both.
func TestEnginesLowestIndexedError(t *testing.T) {
	wantRes, _ := runOn(t, 6, Options{Workers: 2})
	survivors := func(t *testing.T, res []sim.Result) {
		t.Helper()
		for _, i := range []int{0, 1, 3, 5} {
			if !reflect.DeepEqual(res[i], wantRes[i]) {
				t.Errorf("surviving job %d diverged from runner reference", i)
			}
		}
	}
	t.Run("runner", func(t *testing.T) {
		res, err := Runner().Run(context.Background(), brokenSuite(t), Options{Workers: 2})
		if err == nil {
			t.Fatal("broken job did not surface an error")
		}
		for _, want := range []string{"job 2", "suite/broken-a"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing %q", err, want)
			}
		}
		survivors(t, res)
	})
	t.Run("pool", func(t *testing.T) {
		res, errs := drain(t, context.Background(), 2, brokenSuite(t))
		for i, err := range errs {
			if broken := i == 2 || i == 4; broken != (err != nil) {
				t.Errorf("job %d: err = %v, want failure %v", i, err, broken)
			}
		}
		survivors(t, res)
	})
}

// TestEnginesCancelledContext: a pre-cancelled context returns a bare
// ctx.Err() from the runner and fails every pool job with it.
func TestEnginesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bare := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if err.Error() != context.Canceled.Error() {
			t.Errorf("cancellation error is wrapped: %q", err)
		}
	}
	t.Run("runner", func(t *testing.T) {
		_, err := Runner().Run(ctx, suite(t, 4), Options{Workers: 2})
		bare(t, err)
	})
	t.Run("pool", func(t *testing.T) {
		_, errs := drain(t, ctx, 2, suite(t, 4))
		for _, err := range errs {
			bare(t, err)
		}
	})
}

// TestPoolStreamSubmissionOrder pins the streaming release: Ready yields
// exactly 0..n-1 in order regardless of completion interleaving.
func TestPoolStreamSubmissionOrder(t *testing.T) {
	p := runner.NewPool(4, 64)
	defer p.Close()
	eng := NewPool(p)
	st, err := eng.Submit(context.Background(), suite(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := range st.Ready() {
		got = append(got, i)
		if st.Err(i) != nil {
			t.Errorf("job %d failed: %v", i, st.Err(i))
		}
		if st.Result(i).Ticks == 0 {
			t.Errorf("job %d: empty result", i)
		}
	}
	for i, idx := range got {
		if i != idx {
			t.Fatalf("stream released %v, want 0..7 in order", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("stream released %d indices, want 8", len(got))
	}
}

// TestPoolSubmitRejections pass the pool's admission errors through the
// seam unchanged so dispatchers can shed load on them.
func TestPoolSubmitRejections(t *testing.T) {
	p := runner.NewPool(1, 2)
	defer p.Close()
	eng := NewPool(p)
	if _, err := eng.Submit(context.Background(), suite(t, 8)); !errors.Is(err, runner.ErrQueueFull) {
		t.Errorf("oversized submit: err = %v, want ErrQueueFull", err)
	}
	p.BeginDrain()
	if _, err := eng.Submit(context.Background(), suite(t, 1)); !errors.Is(err, runner.ErrDraining) {
		t.Errorf("draining submit: err = %v, want ErrDraining", err)
	}
}

// TestAttachSharedIdempotent: attaching twice or over a pre-attached
// config is a no-op, and configs keep their caches per (profile, dt).
func TestAttachSharedIdempotent(t *testing.T) {
	jobs := suite(t, 4)
	AttachShared(jobs)
	first := make([]*core.Shared, len(jobs))
	for i := range jobs {
		if jobs[i].Cfg.Shared == nil {
			t.Fatalf("job %d: no shared caches attached", i)
		}
		first[i] = jobs[i].Cfg.Shared
	}
	AttachShared(jobs)
	for i := range jobs {
		if jobs[i].Cfg.Shared != first[i] {
			t.Errorf("job %d: re-attach replaced the cache", i)
		}
	}
}
