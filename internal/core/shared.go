package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/diagnosis"
	"repro/internal/ekf"
	"repro/internal/mat"
	"repro/internal/recovery"
	"repro/internal/vehicle"
)

// Shared bundles the read-only per-mission setup that is a pure function
// of (vehicle profile, control period): the recovery LQR gain (a DARE
// solve), the EKF covariance/gain schedule, and the δ-keyed diagnosis
// graph specs. SharedFor keeps one Shared per (profile, dt) key for the
// life of the process, and the engines attach it to every mission via
// Config.Shared; each pipeline then references the caches instead of
// recomputing them.
// All contents are immutable after construction (the EKF schedule
// extends itself lazily behind its own synchronization), so one Shared
// is safe for any number of concurrent missions.
type Shared struct {
	key sharedKey

	lqrQuad *mat.Mat // hover LQR gain; nil for rovers
	ekf     *ekf.Schedule

	mu    sync.Mutex
	specs map[diagnosis.Delta]*diagnosis.GraphSpec
}

// NewShared builds the shared caches for one (profile, dt) pair.
func NewShared(p vehicle.Profile, dt float64) (*Shared, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("core shared: non-positive control period %v", dt)
	}
	k, err := recovery.QuadGain(p, dt)
	if err != nil {
		return nil, fmt.Errorf("core shared: %w", err)
	}
	return &Shared{
		key:     keyOf(p.Name, dt),
		lqrQuad: k,
		ekf:     ekf.NewSchedule(p, dt),
		specs:   make(map[diagnosis.Delta]*diagnosis.GraphSpec),
	}, nil
}

// sharedKey identifies a cache: missions agree on every cache input iff
// they agree on the vehicle profile and the (bitwise) control period.
// Profiles come from the vehicle registry, so the name identifies the
// parameter set.
type sharedKey struct {
	profile vehicle.ProfileName
	dtBits  uint64
}

// keyOf derives the cache key of a (profile, dt) pair.
func keyOf(name vehicle.ProfileName, dt float64) sharedKey {
	return sharedKey{profile: name, dtBits: math.Float64bits(dt)}
}

// registry is the process-wide cache registry behind SharedFor. Caches
// are pure functions of their key and immutable once built, so they live
// for the life of the process and are reused across sweeps and service
// requests. Per-key lookup only — the map is never iterated.
var registry = struct {
	sync.Mutex
	m map[sharedKey]*Shared
}{m: make(map[sharedKey]*Shared)}

// SharedFor returns the process-wide shared caches for a (profile, dt)
// pair, building them on first use. dt <= 0 selects the 0.01 s default
// control period, so explicit-0.01 and defaulted configs share one cache.
func SharedFor(p vehicle.Profile, dt float64) (*Shared, error) {
	if dt <= 0 {
		dt = 0.01
	}
	key := keyOf(p.Name, dt)
	registry.Lock()
	defer registry.Unlock()
	sh, ok := registry.m[key]
	if !ok {
		var err error
		if sh, err = NewShared(p, dt); err != nil {
			return nil, err
		}
		registry.m[key] = sh
	}
	return sh, nil
}

// Matches reports whether the caches were built for exactly this
// (profile, dt) pair. The dt comparison is bitwise: any other value
// walks a different covariance trajectory.
func (s *Shared) Matches(name vehicle.ProfileName, dt float64) bool {
	return s != nil && s.key == keyOf(name, dt)
}

// ProfileName identifies the profile the caches were built for.
func (s *Shared) ProfileName() vehicle.ProfileName { return s.key.profile }

// graphSpec returns the compiled diagnosis graph spec for δ, compiling
// and caching it on first use. Per-key lookup only — the map is never
// iterated, so it cannot leak ordering.
func (s *Shared) graphSpec(delta diagnosis.Delta) *diagnosis.GraphSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, ok := s.specs[delta]
	if !ok {
		sp = diagnosis.CompileSpec(delta)
		s.specs[delta] = sp
	}
	return sp
}
