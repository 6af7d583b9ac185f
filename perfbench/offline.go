package main

// offline-recal: one engineer, closed loop. Each recalibration acquires a
// fresh training population, calibrates, fits the gate, validates on a
// fresh held-out set and stages + activates the result in an on-disk
// registry. One reduced-budget GA stimulus optimization runs beside them.
// No serving layer runs.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/modelreg"
	"repro/internal/parallel"
)

const (
	// recalS is the nominal length of one recalibration on a 2-core Xeon;
	// a run does max(minRecals, seconds/recalS) of them. minRecals ×
	// recalHeldOut devices keep 10 test latencies beyond the p95.
	recalS       = 5.0
	minRecals    = 3
	recalHeldOut = 70
	// qualLots lots of the fixture pool, with seeds fixed like the pool's,
	// are screened under the incumbent after the loop: the qualification
	// lots whose mis-bins give misbin_ratio. Lots and incumbent are both
	// fixed, so the ratio is a constant of the code: it moves only when a
	// change moves the numerics of calibration or screening.
	qualLots = 4
)

// recalOutcome is one recalibration, timed.
type recalOutcome struct {
	acquire, calibrate, gate, validate, stage time.Duration
	cpu                                       time.Duration
	rms                                       float64
	version                                   int
	fingerprint                               uint64
	peakRSSMB                                 float64
	testMs                                    []float64 // held-out acquire+predict per device
	trainers                                  [3]string
	td                                        []core.TrainingDevice
	cal                                       *core.Calibration
}

func (r *recalOutcome) total() time.Duration {
	return r.acquire + r.calibrate + r.gate + r.validate + r.stage
}

func runOfflineRecal(rc *runCtx) (*outcome, error) {
	t0 := time.Now()
	f, err := buildFixture(rc.workers)
	if err != nil {
		return nil, err
	}
	regDir := filepath.Join(rc.dir, "registry")
	reg, err := modelreg.Open(regDir)
	if err != nil {
		return nil, err
	}
	if _, err := stageActive(reg, f.engine, f.cal, f.gate, "incumbent"); err != nil {
		return nil, err
	}
	n := max(minRecals, int(math.Round(float64(rc.seconds)/recalS)))
	out := &outcome{e2e: map[string]float64{"setup_s": time.Since(t0).Seconds()}, layer: map[string]float64{}, attempted: n}

	gaStart := time.Now()
	ga, err := core.OptimizeStimulus(rand.New(rand.NewSource(rc.seed)), f.model, f.cfg,
		core.OptimizerOptions{PopSize: gaPop, Generations: gaGens, Workers: rc.workers})
	if err != nil {
		return nil, err
	}
	out.layer["core.optimize_stimulus_s"] = time.Since(gaStart).Seconds()

	recals, w, err := recalLoop(rc, f, reg, n, nil)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		base := w
		tr := newTracer()
		regDir = filepath.Join(rc.dir, "registry-traced")
		treg, err := modelreg.Open(regDir)
		if err != nil {
			return nil, err
		}
		if _, err := stageActive(treg, f.engine, f.cal, f.gate, "incumbent"); err != nil {
			return nil, err
		}
		recals, w, err = recalLoop(rc, f, treg, n, tr)
		if err != nil {
			return nil, err
		}
		out.tr = tr
		out.layer["harness.trace_overhead_ratio"] = ms(w.cpu) / ms(base.cpu)
	}

	// Verification, outside the timed window. One seeded recalibration is
	// repeated serially and must match the parallel one bit for bit. The
	// registry must reopen from disk with every staged version rebuilding
	// to the fingerprint it was staged with, and the last one ACTIVE.
	ok := make([]bool, n)
	checked := int(uint64(rc.seed) % uint64(n))
	diff, err := verifySerial(rc, f, checked, recals[checked])
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	if diff != "" {
		out.problem("recalibration %d: %s", checked, diff)
	}
	reopened, err := modelreg.Open(regDir)
	if err != nil {
		return nil, fmt.Errorf("reopening the registry: %w", err)
	}
	for i, r := range recals {
		art, found := reopened.Get(r.version)
		if !found {
			out.problem("recalibration %d: v%d missing after reopen", i, r.version)
			continue
		}
		eng, err := art.Engine(f.engine)
		if err != nil || eng.Fingerprint() != r.fingerprint {
			out.problem("recalibration %d: v%d does not rebuild to its staged engine (%v)", i, r.version, err)
			continue
		}
		ok[i] = i != checked || diff == ""
	}
	if last := recals[n-1].version; reopened.Active() != last {
		out.problem("ACTIVE is v%d after reopen, want v%d", reopened.Active(), last)
	}

	// The incumbent screens the qualification lots.
	quals := make([]*floor.LotReport, qualLots)
	parallel.ForEach(rc.workers, qualLots, func(q int) error {
		quals[q] = qualify(f.engine, f, fixtureSeed<<8|int64(q))
		return nil
	})
	qualDevices, misbins, fallbacks, insertions := 0, 0, 0, 0
	for _, q := range quals {
		qualDevices += q.Devices
		misbins += q.MisBins()
		fallbacks += q.Fallback
		for _, r := range q.Results {
			insertions += r.Insertions
		}
	}

	okCount := 0
	for _, v := range ok {
		if v {
			okCount++
		}
	}
	out.failed = n - okCount

	var (
		totals, acq, cal, val, stage, tests, rss []float64
		rmsSum                                   float64
		cpu, recalWall                           time.Duration
	)
	for _, r := range recals {
		totals = append(totals, r.total().Seconds())
		acq = append(acq, r.acquire.Seconds())
		cal = append(cal, r.calibrate.Seconds())
		val = append(val, r.validate.Seconds())
		stage = append(stage, ms(r.stage))
		tests = append(tests, r.testMs...)
		rss = append(rss, r.peakRSSMB)
		rmsSum += r.rms
		cpu += r.cpu
		recalWall += r.total()
	}
	devices := n * (trainDevices + recalHeldOut)
	rms := rmsSum / float64(n)
	out.layer["devices_per_s"] = float64(devices) / recalWall.Seconds()
	out.e2e["cpu_ms_per_device"] = ms(cpu) / float64(devices)
	out.layer["lot_turnaround_p50_ms"] = quantile(tests, 0.5)
	out.layer["lot_turnaround_p95_ms"] = quantile(tests, 0.95)
	out.e2e["lot_ok_ratio"] = float64(okCount) / float64(n)
	out.e2e["misbin_ratio"] = float64(misbins) / float64(qualDevices)
	out.e2e["recal_val_rms_db"] = rms
	out.e2e["max_rss_mb"] = median(rss)
	trainers := make([][3]string, n)
	for i, r := range recals {
		trainers[i] = r.trainers
	}
	out.counts = map[string]any{
		"recalibrations":   n,
		"devices":          devices,
		"recal_val_rms_db": fmt.Sprintf("%.17g", rms),
		"trainers":         trainers,
		"ga_objective":     fmt.Sprintf("%.17g", ga.Objective.F),
		"staged_versions":  recals[n-1].version,
		"qual_devices":     qualDevices,
		"qual_misbins":     misbins,
		"qual_fallbacks":   fallbacks,
		"qual_insertions":  insertions,
		"fixture":          fmt.Sprintf("%016x", f.engine.Fingerprint()),
	}

	if rc.trace {
		L := out.layer
		d := float64(devices)
		L["core.recalibrate_s"] = median(totals)
		L["core.acquire_training_s"] = median(acq)
		L["core.calibrate_s"] = median(cal)
		L["core.validate_s"] = median(val)
		L["modelreg.stage_ms"] = median(stage)
		L["floor.misbin_ratio"] = out.e2e["misbin_ratio"]
		L["floor.insertions_per_device"] = float64(insertions) / float64(qualDevices)
		L["floor.fallback_ratio"] = float64(fallbacks) / float64(qualDevices)
		L["go.alloc_bytes_per_device"] = float64(w.alloc) / d
		L["go.mallocs_per_device"] = float64(w.mallocs) / d
		L["go.gc_cpu_fraction"] = w.gcCPUFraction
		L["harness.gen_lag_ms_p99"] = quantile(out.tr.durations("harness.recal_gap"), 0.99)
		if err := offlineProbes(L, f, out.tr); err != nil {
			return nil, err
		}
		// No serving layer and no screening kernel runs in the timed work.
		absent(L, "lotserver.", "lotrun.", "netfloor.", "modelreg.shadow", "floor.screen_", "floor.gate_",
			"core.capture_", "core.predict_", "rf.", "dsp.")
	}
	return out, nil
}

// stageActive wraps a calibration as an artifact, stages it and makes it
// ACTIVE.
func stageActive(reg *modelreg.Registry, base *floor.Engine, cal *core.Calibration, gate *floor.Gate, note string) (*modelreg.Artifact, error) {
	art, err := modelreg.NewArtifact(base, cal, gate, note)
	if err != nil {
		return nil, err
	}
	v, err := reg.Stage(art)
	if err != nil {
		return nil, err
	}
	art.Version = v
	return art, reg.SetActive(v)
}

// recalLoop runs n recalibrations back to back.
func recalLoop(rc *runCtx, f *fixture, reg *modelreg.Registry, n int, tr *tracer) ([]*recalOutcome, window, error) {
	out := make([]*recalOutcome, n)
	m := startMeter()
	prevEnd := m.u0.wall
	for i := range out {
		lot := fmt.Sprintf("recal%02d", i)
		start := time.Now()
		tr.add("harness.recal_gap", "", prevEnd, start, false)
		r, err := recalibrate(rc, f, reg, i, lot, tr)
		if err != nil {
			m.end()
			return nil, window{}, fmt.Errorf("recalibration %d: %w", i, err)
		}
		out[i] = r
		prevEnd = time.Now()
		tr.add("harness.recal", lot, start, start.Add(r.total()), true)
	}
	return out, m.end(), nil
}

// recalInputs derives recalibration i's training and held-out populations
// and seeds from (seed, i) alone. rng is returned where Calibrate draws
// from it.
func recalInputs(rc *runCtx, f *fixture, i int) (rng *rand.Rand, train, held []*core.Device, acqSeed, valSeed int64, err error) {
	rng = rand.New(rand.NewSource(rc.seed*1_000_003 + int64(i)))
	if train, err = core.GeneratePopulation(rng, f.model, trainDevices, spread); err != nil {
		return
	}
	if held, err = core.GeneratePopulation(rng, f.model, recalHeldOut, spread); err != nil {
		return
	}
	return rng, train, held, rng.Int63(), rng.Int63(), nil
}

// fitModel acquires the training set and fits the calibration and gate,
// calling lap after each stage.
func fitModel(rng *rand.Rand, f *fixture, train []*core.Device, acqSeed int64, workers int, lap func(string)) ([]core.TrainingDevice, *core.Calibration, *floor.Gate, error) {
	td, err := core.AcquireTrainingSetSeeded(acqSeed, f.cfg, f.stim, train, specsOf, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	lap("core.acquire_training")
	cal, err := core.Calibrate(rng, f.stim, td, core.CalibrationOptions{Workers: workers})
	if err != nil {
		return nil, nil, nil, err
	}
	lap("core.calibrate")
	gate, err := floor.FitGate(signatures(td), floor.GateOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	lap("floor.fit_gate")
	return td, cal, gate, nil
}

func recalibrate(rc *runCtx, f *fixture, reg *modelreg.Registry, i int, lot string, tr *tracer) (*recalOutcome, error) {
	rng, train, held, acqSeed, valSeed, err := recalInputs(rc, f, i)
	if err != nil {
		return nil, err
	}
	r := &recalOutcome{}
	laps := map[string]*time.Duration{
		"core.acquire_training": &r.acquire, "core.calibrate": &r.calibrate, "floor.fit_gate": &r.gate,
		"core.validate": &r.validate, "modelreg.stage": &r.stage,
	}
	resetPeakRSS()
	u0 := snapshot()
	t := u0.wall
	lap := func(name string) {
		now := time.Now()
		*laps[name] = now.Sub(t)
		tr.add(name, lot, t, now, false)
		t = now
	}
	td, cal, gate, err := fitModel(rng, f, train, acqSeed, rc.workers, lap)
	if err != nil {
		return nil, err
	}
	rep, err := core.Validate(rand.New(rand.NewSource(valSeed)), f.cfg, cal, f.stim, held)
	if err != nil {
		return nil, err
	}
	lap("core.validate")
	art, err := stageActive(reg, f.engine, cal, gate, lot)
	if err != nil {
		return nil, err
	}
	lap("modelreg.stage")
	r.cpu = between(u0, snapshot()).cpu
	r.peakRSSMB = peakRSSMB()
	r.rms, r.version, r.fingerprint, r.trainers = meanRMS(rep), art.Version, art.Fingerprint, cal.Trainers
	r.td, r.cal = td, cal

	// The held-out set again, one device at a time through the production
	// path (acquire → predict) under the new model: the per-device test
	// latency.
	vrng := rand.New(rand.NewSource(valSeed))
	for _, d := range held {
		s := time.Now()
		sig, err := f.cfg.Acquire(d.Behavioral, f.stim, vrng)
		if err != nil {
			return nil, err
		}
		cal.Predict(sig)
		r.testMs = append(r.testMs, ms(time.Since(s)))
	}
	return r, nil
}

// verifySerial repeats recalibration i's acquire → calibrate → gate at
// Workers = 1 and returns how it differs from the parallel run par, or ""
// when the training signatures, the artifact fingerprint and the
// predictions on every training signature are bit-identical.
func verifySerial(rc *runCtx, f *fixture, i int, par *recalOutcome) (string, error) {
	rng, train, _, acqSeed, _, err := recalInputs(rc, f, i)
	if err != nil {
		return "", err
	}
	td, cal, gate, err := fitModel(rng, f, train, acqSeed, 1, func(string) {})
	if err != nil {
		return "", err
	}
	for j := range td {
		if !sameBits(td[j].Signature, par.td[j].Signature) {
			return fmt.Sprintf("training device %d: signature at Workers=1 differs from Workers=%d", j, rc.workers), nil
		}
	}
	art, err := modelreg.NewArtifact(f.engine, cal, gate, "serial reference")
	if err != nil {
		return "", err
	}
	if art.Fingerprint != par.fingerprint {
		return fmt.Sprintf("artifact fingerprint %016x at Workers=1, %016x at Workers=%d", art.Fingerprint, par.fingerprint, rc.workers), nil
	}
	for j := range td {
		a, b := cal.Predict(td[j].Signature).Vector(), par.cal.Predict(td[j].Signature).Vector()
		if !sameBits(a[:], b[:]) {
			return fmt.Sprintf("training device %d: prediction at Workers=1 %v, at Workers=%d %v", j, a, rc.workers, b), nil
		}
	}
	return "", nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// qualify screens the fixture pool as lot lotSeed under eng, in batches
// of 16.
func qualify(eng *floor.Engine, f *fixture, lotSeed int64) *floor.LotReport {
	rep := eng.NewReport(len(f.pool))
	batch := make([]floor.BatchDevice, 0, batchK)
	for i, d := range f.pool {
		batch = append(batch, floor.BatchDevice{Index: i, Device: d, Seed: core.DeviceSeed(lotSeed, i)})
		if len(batch) == batchK || i == len(f.pool)-1 {
			for _, r := range eng.ScreenBatch(context.Background(), batch, f.faults) {
				rep.Fold(r)
			}
			batch = batch[:0]
		}
	}
	return rep
}
