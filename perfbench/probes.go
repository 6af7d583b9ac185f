package main

// Direct layer probes for the traced run: each times one public call of
// one layer on the workload's own fixture and devices, outside the timed
// window, and reports the median over repetitions.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/floor"
	"repro/internal/linalg"
	"repro/internal/lna"
	"repro/internal/modelreg"
	"repro/internal/regress"
	"repro/internal/rf"
)

const probeReps = 5

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, name string, tr *tracer, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		end := time.Now()
		tr.add(name, "", start, end, false)
		ds[i] = float64(end.Sub(start))
	}
	return time.Duration(median(ds))
}

// kernelProbes fills the per-layer metrics of the batched screening
// kernel, measured by direct calls. devs are screened as lot lotSeed;
// len(devs) must be a multiple of 16.
func kernelProbes(L map[string]float64, f *fixture, devs []*core.Device, lotSeed int64, tr *tracer) error {
	ctx := context.Background()
	n := len(devs)
	batchOf := func(k, start int) []floor.BatchDevice {
		b := make([]floor.BatchDevice, k)
		for j := range b {
			i := start + j
			b[j] = floor.BatchDevice{Index: i, Device: devs[i], Seed: core.DeviceSeed(lotSeed, i)}
		}
		return b
	}
	screenK := func(k int) float64 {
		d := timeMedian(probeReps, fmt.Sprintf("floor.screen_k%d", k), tr, func() {
			for s := 0; s < n; s += k {
				f.engine.ScreenBatch(ctx, batchOf(k, s), f.faults)
			}
		})
		return us(d) / float64(n)
	}
	L["floor.screen_k16_us_per_device"] = screenK(16)
	L["floor.screen_k4_us_per_device"] = screenK(4)
	L["floor.screen_k1_us_per_device"] = us(timeMedian(probeReps, "floor.screen_k1", tr, func() {
		for i := 0; i < batchK; i++ {
			f.engine.ScreenDevice(ctx, i, devs[i], core.DeviceSeed(lotSeed, i), f.faults)
		}
	})) / batchK

	// One K=16 group through the kernel stages: envelope, capture, FFT,
	// predict, gate.
	duts := make([]rf.EnvelopeDevice, batchK)
	runs := make([]rf.DeviceRun, batchK)
	for i := range duts {
		duts[i] = devs[i].Behavioral
	}
	runner, err := rf.NewBatchRunner(f.cfg.Board)
	if err != nil {
		return err
	}
	runner.Prepare(f.stim.At)
	L["rf.run_devices_us_per_device"] = us(timeMedian(probeReps, "rf.run_devices", tr, func() {
		for i := range runs {
			runs[i] = rf.DeviceRun{DUT: duts[i]}
		}
		runner.RunDevices(runs)
	})) / batchK

	ba, err := core.NewBatchAcquirer(f.cfg, f.stim)
	if err != nil {
		return err
	}
	caps := make([]core.BatchCapture, batchK)
	rngs := make([]*rand.Rand, batchK)
	flts := make([]*rf.InsertionFaults, batchK)
	L["core.capture_us_per_device"] = us(timeMedian(probeReps, "core.capture", tr, func() {
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(core.DeviceSeed(lotSeed, i)))
		}
		ba.CaptureTimeBatch(duts, rngs, flts, caps)
	})) / batchK
	records := make([][]float64, batchK)
	for i, c := range caps {
		if c.Err != nil || c.Panic != nil {
			return fmt.Errorf("probe capture of device %d failed: %v %v", i, c.Err, c.Panic)
		}
		records[i] = c.Rec
	}
	L["dsp.spectrum_us_per_device"] = us(timeMedian(probeReps, "dsp.spectrum", tr, func() {
		dsp.MagnitudeSpectrumBatch(records)
	})) / batchK
	sigs := ba.Signatures(records)
	var ps core.PredictScratch
	preds := make([]lna.Specs, batchK)
	const predictLoops = 200
	L["core.predict_us_per_device"] = us(timeMedian(probeReps, "core.predict", tr, func() {
		for r := 0; r < predictLoops; r++ {
			f.cal.PredictBatch(ps.StackSignatures(sigs), preds, &ps)
		}
	})) / (batchK * predictLoops)
	const gateLoops = 200
	L["floor.gate_us_per_device"] = us(timeMedian(probeReps, "floor.gate", tr, func() {
		for r := 0; r < gateLoops; r++ {
			for _, s := range sigs {
				f.gate.Classify(s)
			}
		}
	})) / (batchK * gateLoops)
	return nil
}

// shadowProbe times ShadowScorer.Observe per device: the restaged
// incumbent re-screening devs as lot lotSeed against their incumbent
// results.
func shadowProbe(L map[string]float64, f *fixture, devs []*core.Device, lotSeed int64, tr *tracer) error {
	ctx := context.Background()
	incumbent := make([]floor.DeviceResult, len(devs))
	for i, d := range devs {
		incumbent[i] = f.engine.ScreenDevice(ctx, i, d, core.DeviceSeed(lotSeed, i), f.faults)
	}
	sc := modelreg.NewShadowScorer(1, f.engine, modelreg.Bounds{MinSamples: math.MaxInt32})
	L["modelreg.shadow_observe_ms"] = ms(timeMedian(probeReps, "modelreg.shadow_observe", tr, func() {
		for i, inc := range incumbent {
			sc.Observe(ctx, lotSeed, devs[i], f.faults, inc)
		}
	})) / float64(len(devs))
	if st := sc.Stats(); st.Disagree != 0 {
		return fmt.Errorf("shadow probe: the restaged incumbent disagreed on %d of %d devices", st.Disagree, st.Scored)
	}
	return nil
}

// absent reports 0 for each per-layer metric, not yet measured, whose name
// starts with one of prefixes: a layer the workload never enters.
func absent(L map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, ok := L[d.name]; !ok && strings.HasPrefix(d.name, p) {
				L[d.name] = 0
			}
		}
	}
}

// offlineProbes times the calibration-side layers: one GA fitness
// evaluation (signature sensitivity), one spec's model selection, and the
// SVD at the training row count × the widest MARS basis.
func offlineProbes(L map[string]float64, f *fixture, tr *tracer) error {
	set, err := core.NewBehavioralSet(f.model)
	if err != nil {
		return err
	}
	var sensErr error
	L["core.signature_sensitivity_ms"] = ms(timeMedian(probeReps, "core.signature_sensitivity", tr, func() {
		if _, err := f.cfg.SignatureSensitivity(set, f.stim); err != nil {
			sensErr = err
		}
	}))
	if sensErr != nil {
		return sensErr
	}

	m := len(f.train[0].Signature)
	X := linalg.NewMatrix(len(f.train), m)
	y := make([]float64, len(f.train))
	for i, td := range f.train {
		X.SetRow(i, td.Signature)
		y[i] = td.Specs.GainDB
	}
	var selErr error
	L["regress.select_best_s"] = timeMedian(1, "regress.select_best", tr, func() {
		_, _, _, selErr = regress.SelectBestSeeded(calibrationTrainers(), X, y, 5, fixtureSeed, 1)
	}).Seconds()
	if selErr != nil {
		return selErr
	}

	const basis = 13 // regress.MARS MaxTerms in the calibration defaults
	A := linalg.NewMatrix(len(f.train), basis)
	for i := 0; i < A.Rows; i++ {
		for j := 0; j < basis; j++ {
			A.Set(i, j, X.At(i, j%m))
		}
	}
	const svdLoops = 100
	L["linalg.svd_ms"] = ms(timeMedian(probeReps, "linalg.svd", tr, func() {
		for r := 0; r < svdLoops; r++ {
			linalg.ComputeSVD(A)
		}
	})) / svdLoops
	return nil
}

// calibrationTrainers mirrors core.CalibrationOptions' default families.
func calibrationTrainers() []regress.Trainer {
	return []regress.Trainer{
		regress.Ridge{Lambda: 1e-8},
		regress.PolyPCA{Components: 8},
		regress.MARS{MaxTerms: 13, Knots: 5},
	}
}
