package lint

import "repro/internal/sensors"

// Module-specific analyzer configuration. The suite is tuned to this
// repository: the canonical physical-state vocabulary lives in
// internal/sensors, deterministic replay covers the sim/experiment/
// mission/core pipeline, and error discipline is enforced across all of
// internal/.
const (
	modulePath    = "repro"
	sensorsPath   = modulePath + "/internal/sensors"
	clockPath     = modulePath + "/internal/clock"
	telemetryPath = modulePath + "/internal/telemetry"
	corePath      = modulePath + "/internal/core"
	runnerPath    = modulePath + "/internal/runner"
	enginePath    = modulePath + "/internal/engine"
	campaignPath  = modulePath + "/internal/campaign"
	simPath       = modulePath + "/internal/sim"
	ekfPath       = modulePath + "/internal/ekf"
	fgPath        = modulePath + "/internal/fg"
	tracePath     = modulePath + "/internal/trace"
	sourcePath    = modulePath + "/internal/source"
	servicePath   = modulePath + "/internal/service"
)

// DefaultAnalyzers returns the project's full analyzer suite, tuned to
// DeLorean's invariants. The per-package analyzers (floatcmp, stateindex,
// exhaustive, errdrop, determinism, mapiter, sharedwrite) run on each
// package independently; the whole-program analyzers (hotalloc, puretick)
// run once over the call graph of everything loaded. Determinism and
// puretick deliberately overlap: determinism is a package-scoped fence
// around the replay-sensitive directories (it also covers code that is
// not yet wired into the tick path), while puretick is a reachability
// proof with no allowlist — code moved out of the fenced packages stays
// covered as long as the tick path calls it.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmp(),
		StateIndex(StateIndexConfig{
			SensorsPath: sensorsPath,
			NumStates:   int(sensors.NumStates),
		}),
		Exhaustive(ExhaustiveConfig{
			TypePrefix: modulePath + "/",
			Exclude: map[string][]string{
				// NumStates is the PS length sentinel, not a state.
				sensorsPath + ".StateIndex": {"NumStates"},
				// NumStages is the stage-count sentinel, not a pipeline
				// stage; core.Mode (the pipeline FSM) and telemetry.Kind
				// stay fully covered.
				telemetryPath + ".Stage": {"NumStages"},
			},
		}),
		ErrDrop(modulePath + "/internal/"),
		Hotalloc(defaultHotalloc()),
		Determinism(DeterminismConfig{
			Restricted: []string{
				simPath,
				modulePath + "/internal/experiments",
				modulePath + "/internal/mission",
				corePath,
				runnerPath,
				telemetryPath,
				// The trace codec and the replay/bus sources are part of
				// the byte-identity surface: a recorded mission must decode
				// and replay to the same bytes forever.
				tracePath,
				sourcePath,
				// The mission service streams result bytes that must be
				// identical at any pool size: wall-clock reads go through
				// the clock seam (quota refill) and randomness through
				// explicitly seeded rngs (experiment seed pre-draw).
				servicePath,
				// The engine seam fans any engine's results back into
				// submission order; the campaign layer draws its job list
				// from the spec seed and merges shard reports byte-exactly.
				// Neither may consult the wall clock or unseeded rand, or
				// shard layout would leak into study bytes.
				enginePath,
				campaignPath,
			},
			ClockPath: clockPath,
		}),
		Puretick(PuretickConfig{
			Roots: []FuncRef{
				corePath + ":Pipeline.Tick",
				// The runner's in-order reduce is the one place every
				// sweep's results flow through on their way into a report.
				runnerPath + ":reduceTelemetry",
				// One control period of a mission, without RunContext's
				// cancellation select: the whole in-mission step path
				// (sensor source, Tick, physics, telemetry capture) is
				// free of clock reads, global rand and select.
				simPath + ":Mission.Step",
			},
			ClockPath: clockPath,
			Sinks:     defaultSinks(),
		}),
		MapIter(MapIterConfig{Sinks: defaultSinks()}),
		SharedWrite(SharedWriteConfig{
			Runners: []FuncRef{
				runnerPath + ":Do",
				// Pool.Submit's callback runs on the service pool's
				// shards; its writes are held to the same per-index-slot
				// confinement as Do's.
				runnerPath + ":Pool.Submit",
			},
		}),
	}
}

// defaultSinks are the order-sensitive output package prefixes: anything
// formatted (fmt), recorded in the run report (telemetry), serialized
// into an on-disk trace (trace), streamed over the mission service's
// NDJSON responses (service), or persisted into a study checkpoint
// (campaign) must not observe map iteration order.
func defaultSinks() []string {
	return []string{"fmt", telemetryPath, tracePath, servicePath, campaignPath}
}

// defaultHotalloc declares the roots and cold cut points of the module's
// zero-allocation hot set. The hot set itself is derived by call-graph
// reachability — the per-tick defense pipeline entry plus the
// factor-graph inference kernels, minus the sanctioned episodic/lazy
// paths below. There is no hand-maintained function list: extract a
// helper from Tick's callees and it is hot automatically.
func defaultHotalloc() HotallocConfig {
	return HotallocConfig{
		MatPath: modulePath + "/internal/mat",
		Roots: []FuncRef{
			corePath + ":Pipeline.Tick",
			fgPath + ":Graph.Marginal",
			fgPath + ":Graph.MarginalsInto",
			fgPath + ":Graph.MLE",
			// One mission control period: the nominal step must not
			// allocate, or per-tick garbage scales with mission length.
			simPath + ":Mission.Step",
		},
		// Episodic or one-time paths sanctioned to allocate. Each runs per
		// alert episode or per configuration change, never per tick, and
		// owns the pipeline's cold allocations (triage snapshots, widened
		// diagnosis graphs, lazy workspace growth, gain refresh on
		// operating-point drift).
		Cold: []FuncRef{
			corePath + ":Pipeline.triage",
			corePath + ":Pipeline.widenDiagnosis",
			corePath + ":Pipeline.revalidateSensors",
			corePath + ":Pipeline.exitRecovery",
			corePath + ":Pipeline.triggerDetail",
			modulePath + "/internal/mat:LU.grow",
			fgPath + ":Graph.growScratch",
			modulePath + "/internal/recovery:LQR.refreshRoverGain",
			// Shared-schedule cold paths: extending the covariance
			// schedule clones each new step once per (profile, dt, cycle)
			// process-wide, and falling off the shared path reconstructs
			// covariance once per mission at most.
			ekfPath + ":Schedule.extendTo",
			ekfPath + ":Schedule.seedPost",
			ekfPath + ":Filter.detachShared",
			// Per-mission epilogue and terminal error paths of the
			// mission step: each runs at most once per mission, never on
			// the nominal per-tick path.
			simPath + ":Mission.Finish",
			simPath + ":srcErr",
			sourcePath + ":exhaustedErr",
			sourcePath + ":desyncErr",
			// Failure injection trips at most once per mission: the
			// armed flag flips off after the first SetDropout.
			sensorsPath + ":Suite.SetDropout",
		},
	}
}

// AnalyzerByName returns the named analyzer from the default suite, or
// nil when unknown.
func AnalyzerByName(name string) *Analyzer {
	for _, az := range DefaultAnalyzers() {
		if az.Name == name {
			return az
		}
	}
	return nil
}
