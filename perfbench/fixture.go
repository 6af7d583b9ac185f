package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lna"
	"repro/internal/wave"
)

// The deployed engineering fixture: the behavioral RF2401 family on the
// simulated loadboard, a GA-optimized stimulus, a MARS-family calibration, the signature gate and the
// production pool lots draw from. Its seed is a constant, not the workload
// seed: the fixture is the program's configuration, and the workload seed
// varies only what arrives at it (lots, schedules, training populations).
// Holding it fixed keeps deterministic quality figures comparable across
// seeds.
const (
	fixtureSeed = 20021
	// trainDevices is the repository benchmarks' training lot: with fewer
	// (the daemons' 28) the gate routes about a fifth of all devices to the
	// conventional fallback.
	trainDevices = 60
	heldOut      = 50
	poolDevices  = 256
	spread       = 0.9
	faultP       = 0.10
	// gaPop × gaGens is the GA budget, here and in offline-recal: twice
	// the daemons' quick budget (8 × 2), so the timed GA is about 2 s of
	// fitness evaluations rather than a sub-second blip.
	gaPop, gaGens = 12, 3
)

// rf2401Limits is the RF2401 data-sheet window: minimum gain, maximum
// noise figure, minimum IIP3.
var rf2401Limits = lna.Specs{GainDB: 10.0, NFDB: 4.2, IIP3DBm: -9.5}

func passRF2401(s lna.Specs) bool {
	return s.GainDB >= rf2401Limits.GainDB && s.NFDB <= rf2401Limits.NFDB && s.IIP3DBm >= rf2401Limits.IIP3DBm
}

// fixture is one built engineering state plus the time each phase took.
type fixture struct {
	model  core.DeviceModel
	cfg    *core.TestConfig
	stim   *wave.PWL
	train  []core.TrainingDevice
	cal    *core.Calibration
	gate   *floor.Gate
	engine *floor.Engine
	pool   []*core.Device
	faults *floor.FaultModel
	valRMS float64 // held-out RMS error averaged over the three specs

	gaS, acquireS, calibrateS, gateS, validateS float64
}

func specsOf(d *core.Device) lna.Specs { return d.Specs }

// meanRMS averages the per-spec RMS errors of a validation report.
func meanRMS(r *core.ValidationReport) float64 {
	return (r.Specs[0].RMSErr + r.Specs[1].RMSErr + r.Specs[2].RMSErr) / 3
}

// buildFixture runs the engineering phase: GA stimulus → training
// acquisition → calibration → gate → held-out validation → pool.
func buildFixture(workers int) (*fixture, error) {
	f := &fixture{model: core.RF2401Model{}, cfg: core.DefaultSimConfig(), faults: floor.DefaultFaultModel(faultP)}
	rng := rand.New(rand.NewSource(fixtureSeed))
	t := time.Now()
	step := func(dst *float64) {
		now := time.Now()
		*dst = now.Sub(t).Seconds()
		t = now
	}

	opt, err := core.OptimizeStimulus(rng, f.model, f.cfg, core.OptimizerOptions{PopSize: gaPop, Generations: gaGens, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("stimulus optimization: %w", err)
	}
	f.stim = opt.Stimulus
	step(&f.gaS)

	pop, err := core.GeneratePopulation(rng, f.model, trainDevices, spread)
	if err != nil {
		return nil, err
	}
	f.train, err = core.AcquireTrainingSetSeeded(rng.Int63(), f.cfg, f.stim, pop, specsOf, workers)
	if err != nil {
		return nil, err
	}
	step(&f.acquireS)

	f.cal, err = core.Calibrate(rng, f.stim, f.train, core.CalibrationOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	step(&f.calibrateS)

	f.gate, err = floor.FitGate(signatures(f.train), floor.GateOptions{})
	if err != nil {
		return nil, err
	}
	step(&f.gateS)

	val, err := core.GeneratePopulation(rng, f.model, heldOut, spread)
	if err != nil {
		return nil, err
	}
	rep, err := core.Validate(rng, f.cfg, f.cal, f.stim, val)
	if err != nil {
		return nil, err
	}
	f.valRMS = meanRMS(rep)
	step(&f.validateS)

	f.pool, err = core.GeneratePopulation(rng, f.model, poolDevices, spread)
	if err != nil {
		return nil, err
	}
	nearestLimitFirst(f.pool)
	f.engine = &floor.Engine{
		Cfg: f.cfg, Cal: f.cal, Stim: f.stim, Gate: f.gate,
		PredPass: passRF2401, TruePass: passRF2401, Policy: floor.DefaultPolicy(),
	}
	if err := f.engine.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// nearestLimitFirst orders the pool by each device's distance to its
// nearest data-sheet limit, in units of the pool's spread of that spec.
// A lot screens a prefix of the pool, so the small remote lots (at most 16
// devices) hold the devices whose bins a numerics change moves first, and
// their mis-bin count is never a degenerate 0. Lots of the whole pool are
// unaffected but for device order.
func nearestLimitFirst(pool []*core.Device) {
	sign := [3]float64{1, -1, 1} // gain and IIP3 are minimums, NF a maximum
	var mean, sd [3]float64
	for _, d := range pool {
		v := d.Specs.Vector()
		for s := range v {
			mean[s] += v[s] / float64(len(pool))
		}
	}
	for _, d := range pool {
		v := d.Specs.Vector()
		for s := range v {
			sd[s] += (v[s] - mean[s]) * (v[s] - mean[s]) / float64(len(pool))
		}
	}
	lim := rf2401Limits.Vector()
	dist := make(map[*core.Device]float64, len(pool))
	for _, d := range pool {
		v := d.Specs.Vector()
		margin := math.Inf(1)
		for s := range v {
			margin = math.Min(margin, sign[s]*(v[s]-lim[s])/math.Sqrt(sd[s]))
		}
		dist[d] = math.Abs(margin)
	}
	sort.SliceStable(pool, func(i, j int) bool { return dist[pool[i]] < dist[pool[j]] })
}

// layers reports the fixture build's own stage timings: the GA and the
// calibration (acquire → calibrate → gate → validate).
func (f *fixture) layers(L map[string]float64) {
	L["core.optimize_stimulus_s"] = f.gaS
	L["core.recalibrate_s"] = f.acquireS + f.calibrateS + f.gateS + f.validateS
	L["core.acquire_training_s"] = f.acquireS
	L["core.calibrate_s"] = f.calibrateS
	L["core.validate_s"] = f.validateS
}

func signatures(td []core.TrainingDevice) [][]float64 {
	out := make([][]float64, len(td))
	for i := range td {
		out[i] = td[i].Signature
	}
	return out
}
