package main

import (
	"cmp"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/sensors"
	"repro/internal/sim"
)

// The traced run's decorators. Each wraps one call boundary into a layer
// with wall-clock timers; none changes what the wrapped call computes,
// and the run checks that: a traced round's study bytes (and a traced
// request's response bytes) must equal the untraced ones.

// histogram is a log-bucketed latency histogram (5% buckets from 0.1 µs),
// cheap enough to fill on every control tick.
type histogram [400]uint32

func bucketOf(d time.Duration) int {
	v := float64(d) / 100 // units of 0.1 µs
	if v <= 1 {
		return 0
	}
	b := int(math.Log(v)/math.Log(1.05)) + 1
	if b >= len(histogram{}) {
		b = len(histogram{}) - 1
	}
	return b
}

func (h *histogram) add(d time.Duration) { h[bucketOf(d)]++ }

func (h *histogram) merge(o *histogram) {
	for i := range h {
		h[i] += o[i]
	}
}

// quantileUS returns the q-quantile in µs as the geometric centre of the
// bucket holding it.
func (h *histogram) quantileUS(q float64) float64 {
	var n uint64
	for _, c := range h {
		n += uint64(c)
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h {
		seen += uint64(c)
		if seen >= rank {
			if i == 0 {
				return 0.1
			}
			return 0.1 * math.Pow(1.05, float64(i)-0.5)
		}
	}
	return 0
}

// timer accumulates a call count and total time.
type timer struct {
	n     int64
	total time.Duration
}

func (t *timer) add(d time.Duration) { t.n++; t.total += d }
func (t *timer) merge(o timer)       { t.n += o.n; t.total += o.total }

func (t timer) meanUS() float64 {
	if t.n == 0 {
		return 0
	}
	return us(t.total) / float64(t.n)
}

// The source decorator captures every captureEvery-th tick, up to
// captureLimit per profile, as the layer ladder's inputs.
const (
	captureEvery = 7
	captureLimit = 400
)

// sample is one control tick's inputs captured for the layer ladder.
type sample struct {
	Tick    sensors.Tick
	Reading sensors.PhysState
}

// missionTrace is the per-mission span state, owned by one mission's
// goroutine until the engine decorator folds it in after Run returns.
type missionTrace struct {
	profile  string
	quad     bool
	first    time.Time
	last     time.Time
	prev     time.Time
	ticks    histogram
	sample   timer
	detect   timer
	observe  timer
	diagnose timer
	captured []sample
}

// tracedSource decorates a sensors.Source: the time of each Sample call
// is source time, and the gap between successive calls is one control
// tick.
type tracedSource struct {
	inner sensors.Source
	mt    *missionTrace
	every int
	limit int
	n     int
}

func (s *tracedSource) Sample(tick sensors.Tick) (sensors.Reading, error) {
	t0 := time.Now()
	rd, err := s.inner.Sample(tick)
	t1 := time.Now()
	mt := s.mt
	if s.n == 0 {
		mt.first = t0
	} else {
		mt.ticks.add(t0.Sub(mt.prev))
	}
	mt.prev = t0
	mt.last = t1
	mt.sample.add(t1.Sub(t0))
	if s.every > 0 && s.n%s.every == 0 && len(mt.captured) < s.limit {
		mt.captured = append(mt.captured, sample{Tick: tick, Reading: rd.State})
	}
	s.n++
	return rd, err
}

func (s *tracedSource) AttackMounted() bool { return s.inner.AttackMounted() }

// tracedDetector decorates the residual detector, forwarding the alert
// attribution the pipeline reads through an optional interface.
type tracedDetector struct {
	inner *detect.Residual
	mt    *missionTrace
}

func (d *tracedDetector) Update(p, o sensors.PhysState) bool {
	t0 := time.Now()
	a := d.inner.Update(p, o)
	d.mt.detect.add(time.Since(t0))
	return a
}
func (d *tracedDetector) Alert() bool             { return d.inner.Alert() }
func (d *tracedDetector) Reset()                  { d.inner.Reset() }
func (d *tracedDetector) Trigger() detect.Trigger { return d.inner.Trigger() }

// tracedDiagnoser decorates the DeLorean factor-graph diagnoser,
// forwarding the per-sensor verdicts the pipeline renders into events.
type tracedDiagnoser struct {
	inner *diagnosis.DeLorean
	mt    *missionTrace
}

func (d *tracedDiagnoser) Name() string                   { return d.inner.Name() }
func (d *tracedDiagnoser) Reference() diagnosis.Reference { return d.inner.Reference() }
func (d *tracedDiagnoser) Reset()                         { d.inner.Reset() }
func (d *tracedDiagnoser) Verdicts() []diagnosis.SensorVerdict {
	return d.inner.Verdicts()
}

func (d *tracedDiagnoser) Observe(p, o sensors.PhysState) {
	t0 := time.Now()
	d.inner.Observe(p, o)
	d.mt.observe.add(time.Since(t0))
}

func (d *tracedDiagnoser) Diagnose() sensors.TypeSet {
	t0 := time.Now()
	s := d.inner.Diagnose()
	d.mt.diagnose.add(time.Since(t0))
	return s
}

// detectThresholds mirrors how the pipeline derives its detector
// thresholds from δ when none are configured.
func detectThresholds(delta diagnosis.Delta) detect.Thresholds {
	var th detect.Thresholds
	for _, idx := range sensors.AllStates() {
		th[idx] = delta[idx]
	}
	if th == (detect.Thresholds{}) {
		th = detect.DefaultThresholds()
	}
	return th
}

// span is one recorded call: name, parent, start and end offsets from
// the tracer's epoch.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer collects spans and folded per-mission layer timings in memory;
// write dumps them once the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span

	ticks    histogram
	nTicks   int64
	sample   timer
	detect   timer
	observe  timer
	diagnose timer
	missions timer // first Sample → last Sample, per mission
	engine   timer // engine.Run wall
	campaign timer // campaign.Run wall
	handler  timer

	// Exact work counts of the traced missions, for attribution.
	quadTicks, roverTicks          int64
	recoveryTicks, replayedRecords int64

	captured map[string][]sample // per profile, for the layer ladder
	specs    map[diagnosis.Delta]*diagnosis.GraphSpec
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		captured: map[string][]sample{},
		specs:    map[diagnosis.Delta]*diagnosis.GraphSpec{},
	}
}

// begin opens a span and returns its id and start.
func (t *tracer) begin(name string, parent int) (int, time.Time) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartUS: us(now.Sub(t.epoch))})
	return id, now
}

// end closes span id and returns its duration.
func (t *tracer) end(id int, start time.Time) time.Duration {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].EndUS = us(now.Sub(t.epoch))
	t.mu.Unlock()
	return now.Sub(start)
}

// graphSpec returns the compiled diagnosis graph for δ, compiled once.
func (t *tracer) graphSpec(delta diagnosis.Delta) *diagnosis.GraphSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.specs[delta]
	if !ok {
		sp = diagnosis.CompileSpec(delta)
		t.specs[delta] = sp
	}
	return sp
}

// instrument installs the source, detector and diagnoser decorators on a
// job.
func (t *tracer) instrument(cfg *sim.Config, mt *missionTrace) {
	delta := cfg.Delta
	inner := takeSimSource(cfg)
	cfg.Source = &tracedSource{inner: inner, mt: mt, every: captureEvery, limit: captureLimit}
	cfg.Detector = &tracedDetector{inner: detect.NewResidual(detectThresholds(delta)), mt: mt}
	cfg.Diagnoser = &tracedDiagnoser{inner: diagnosis.NewDeLoreanSpec(delta, t.graphSpec(delta)), mt: mt}
}

// fold merges one finished mission's spans into the totals.
func (t *tracer) fold(mt *missionTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks.merge(&mt.ticks)
	t.nTicks += mt.sample.n
	if mt.quad {
		t.quadTicks += mt.sample.n
	} else {
		t.roverTicks += mt.sample.n
	}
	t.sample.merge(mt.sample)
	t.detect.merge(mt.detect)
	t.observe.merge(mt.observe)
	t.diagnose.merge(mt.diagnose)
	if !mt.first.IsZero() {
		t.missions.add(mt.last.Sub(mt.first))
	}
	if room := captureLimit - len(t.captured[mt.profile]); room > 0 {
		t.captured[mt.profile] = append(t.captured[mt.profile], mt.captured[:min(room, len(mt.captured))]...)
	}
}

// tracedEngine decorates the default engine: every job gets the layer
// decorators, and the Run call itself is a span.
type tracedEngine struct {
	inner  engine.Engine
	t      *tracer
	parent int // the enclosing campaign.run span
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Run(ctx context.Context, jobs []engine.Job, opt engine.Options) ([]sim.Result, error) {
	id, start := e.t.begin("engine.run", e.parent)
	mts := make([]*missionTrace, len(jobs))
	for i := range jobs {
		p := jobs[i].Cfg.Profile
		mts[i] = &missionTrace{profile: string(p.Name), quad: p.IsQuad()}
		e.t.instrument(&jobs[i].Cfg, mts[i])
	}
	res, err := e.inner.Run(ctx, jobs, opt)
	d := e.t.end(id, start)
	for _, mt := range mts {
		e.t.fold(mt)
	}
	e.t.mu.Lock()
	e.t.engine.add(d)
	e.t.mu.Unlock()
	return res, err
}

// tracedHandler decorates the service's HTTP handler.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, t0 := h.t.begin("service.handler", 0)
	h.inner.ServeHTTP(w, r)
	d := h.t.end(id, t0)
	h.t.mu.Lock()
	h.t.handler.add(d)
	h.t.mu.Unlock()
}

// write dumps the recorded spans to path as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
