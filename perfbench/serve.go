package main

// The two serving workloads. local-saturated is a closed loop against an
// in-process lotserver with local batched workers; remote-open-shadow is an
// open loop through the client protocol to a lotserver that screens on one
// netfloor.Site while a shadow candidate is scored.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diskfault"
	"repro/internal/floor"
	"repro/internal/lotrun"
	"repro/internal/lotserver"
	"repro/internal/modelreg"
	"repro/internal/netfloor"
	"repro/internal/parallel"
)

const (
	batchK = 16

	// local-saturated: 256-device lots, kept 8 deep against the server's
	// default 4 active + 8 queued admission slots, so workers always have
	// fresh devices and nothing is shed. localLotsPerS sizes the run
	// (≈3,600 devices/s on a 2-core Xeon); at least 200 lots keep 10
	// samples beyond the p95.
	localLotDevices = 256
	localWindow     = 8
	localLotsPerS   = 14.0
	minLots         = 200
	// localLimit is the turnaround a local lot must meet to count in
	// lot_ok_ratio: about six times the median on a 2-core Xeon, so only
	// a starved lot or a collapse of throughput misses it.
	localLimit = 4 * time.Second
	// localSamples devices of every lot are re-screened serially, and one
	// whole lot is re-run through RunLot: the serial oracle costs ~25× the
	// batched kernel, so re-running every device would dwarf the run.
	localSamples = 2

	// remote-open-shadow: Poisson lot arrivals at remoteRate lots/s with
	// log-uniform sizes in [4, 16] (mean ≈8.5 devices), so about 42
	// devices/s: a third of the serial shadow scorer's ≈125 devices/s on
	// one core of a 2-core Xeon. With sizes up to 32 (≈47 devices/s at 3.5
	// lots/s) the 256-item shadow queue overflowed whenever the host was
	// slowed by neighbors, and 200 lots at a lower rate no longer fit the
	// run's time budget.
	remoteRate = 5.0
	// remoteFullChecks is the share of lots re-run end to end through the
	// serial RunLot. Every device is also compared serially by the shadow
	// scorer (a restaged incumbent must agree on every bin), and every
	// journal is read back against its wire summary.
	remoteFullChecks = 4
	// remoteLimit is the turnaround a remote lot must meet to count in
	// lot_ok_ratio: about twelve times the median and three times the
	// worst p95 seen on a 2-core Xeon under neighbors' load, so a stall,
	// a backlog or a wait of that order misses it.
	remoteLimit  = 250 * time.Millisecond
	remoteMinDev = 4
	remoteMaxDev = 16
	// heartbeat is the site/client beacon period. An idle site loop waits
	// for the next frame, so it bounds how long a new lot waits for its
	// first assignment; 10 ms keeps that wait small beside screening.
	heartbeat = 10 * time.Millisecond
	idle      = 30 * time.Second

	// loopDeadline bounds a whole timed loop: a hung service fails its
	// lots instead of outliving the run's time limit.
	loopDeadline = 100 * time.Second
)

// lotOutcome is what the client saw for one lot.
type lotOutcome struct {
	spec      lotserver.LotSpec
	due, sent time.Time
	done      time.Time
	res       *lotserver.LotResult  // local-saturated
	sum       *lotserver.LotSummary // remote-open-shadow
	err       error
}

// servingSetup builds the fixture and starts the service through start.
// It returns the outcome seeded with setup_s, the time of both, and the
// fixture's figures.
func servingSetup[S any](rc *runCtx, attempted int, start func(f *fixture) (S, error)) (*fixture, S, *outcome, error) {
	var svc S
	t0 := time.Now()
	f, err := buildFixture(rc.workers)
	if err != nil {
		return nil, svc, nil, err
	}
	if svc, err = start(f); err != nil {
		return nil, svc, nil, err
	}
	out := &outcome{
		e2e:       map[string]float64{"setup_s": time.Since(t0).Seconds(), "recal_val_rms_db": f.valRMS},
		layer:     map[string]float64{},
		attempted: attempted,
	}
	f.layers(out.layer)
	return f, svc, out, nil
}

// sameResult compares every deterministic field of two device results.
func sameResult(a, b floor.DeviceResult) bool {
	if a.Index != b.Index || a.Bin != b.Bin || a.Insertions != b.Insertions ||
		a.AcqErrors != b.AcqErrors || a.Pred != b.Pred || a.TruePass != b.TruePass ||
		a.CleanD != b.CleanD || a.ExtraSettleS != b.ExtraSettleS ||
		len(a.Faults) != len(b.Faults) || len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			return false
		}
	}
	for i := range a.Verdicts {
		if a.Verdicts[i] != b.Verdicts[i] {
			return false
		}
	}
	return true
}

// inTime counts the lots that passed verification and returned within
// limit of their due time.
func inTime(lots []*lotOutcome, ok []bool, limit time.Duration) int {
	n := 0
	for i, l := range lots {
		if ok[i] && l.done.Sub(l.due) <= limit {
			n++
		}
	}
	return n
}

func turnarounds(lots []*lotOutcome) []float64 {
	var out []float64
	for _, l := range lots {
		if l.err == nil && !l.done.IsZero() {
			out = append(out, ms(l.done.Sub(l.due)))
		}
	}
	return out
}

// ---------------------------------------------------------------- local

func runLocalSaturated(rc *runCtx) (*outcome, error) {
	type localSvc struct {
		srv *lotserver.Server
		jfs *journalFS
	}
	startLocal := func(dir string, f *fixture, tr *tracer, hook func(string, int)) (*lotserver.Server, *journalFS, error) {
		jfs := newJournalFS(tr)
		srv, err := lotserver.New(lotserver.Options{
			Engine: f.engine, Pool: f.pool, Faults: f.faults,
			JournalDir:   dir,
			FS:           jfs,
			LocalWorkers: rc.workers,
			Batch:        batchK,
			Hook:         hook,
		})
		return srv, jfs, err
	}
	n := max(minLots, int(math.Round(localLotsPerS*float64(rc.seconds))))
	f, svc, out, err := servingSetup(rc, n, func(f *fixture) (localSvc, error) {
		srv, jfs, err := startLocal(filepath.Join(rc.dir, "journals"), f, nil, nil)
		return localSvc{srv, jfs}, err
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(rc.seed))
	specs := make([]lotserver.LotSpec, n)
	for i := range specs {
		specs[i] = lotserver.LotSpec{ID: fmt.Sprintf("L%05d", i), Seed: rng.Int63(), Devices: localLotDevices}
	}
	var (
		lots   []*lotOutcome
		w      window
		st     lotserver.Status
		jfs    = svc.jfs
		hooked *dispatchLog
	)
	if !rc.trace {
		lots, w = closedLoop(svc.srv, specs, nil)
		svc.srv.Kill()
	} else {
		// Untraced pass first (the baseline for the overhead ratio), then
		// a traced pass on a fresh server and journal directory.
		_, base := closedLoop(svc.srv, specs, nil)
		svc.srv.Kill()
		tr := newTracer()
		hooked = newDispatchLog()
		srv, tjfs, err := startLocal(filepath.Join(rc.dir, "traced"), f, tr, hooked.hook)
		if err != nil {
			return nil, err
		}
		lots, w = closedLoop(srv, specs, tr)
		st = srv.Status()
		srv.Kill()
		jfs, out.tr = tjfs, tr
		out.layer["harness.trace_overhead_ratio"] = (ms(w.cpu) / ms(base.cpu))
	}

	// Verification, outside the timed window.
	devices, insertions, misbins, fallbacks, dups := 0, 0, 0, 0, 0
	ok := make([]bool, n)
	for i, l := range lots {
		ok[i] = l.err == nil
		if l.err != nil {
			out.problem("lot %s: %v", l.spec.ID, l.err)
			continue
		}
		rep := l.res.Report
		if rep.Devices != localLotDevices || len(rep.Results) != localLotDevices || rep.Binned() != rep.Devices ||
			rep.JournalDegraded || l.res.Replayed != 0 {
			out.problem("lot %s: malformed report (%d devices, %d results, %d binned, degraded %v, replayed %d)",
				l.spec.ID, rep.Devices, len(rep.Results), rep.Binned(), rep.JournalDegraded, l.res.Replayed)
			ok[i] = false
			continue
		}
		for j, r := range rep.Results {
			if r.Index != j {
				out.problem("lot %s: result %d carries index %d", l.spec.ID, j, r.Index)
				ok[i] = false
				break
			}
			insertions += r.Insertions
		}
		devices += rep.Devices
		misbins += rep.MisBins()
		fallbacks += rep.Fallback
		dups += l.res.Dups
	}
	verifyLocal(rc, f, lots, ok, out)
	okLots := 0
	for _, v := range ok {
		if v {
			okLots++
		}
	}
	out.failed = n - okLots

	tas := turnarounds(lots)
	out.layer["devices_per_s"] = float64(devices) / w.wall.Seconds()
	out.e2e["cpu_ms_per_device"] = ms(w.cpu) / float64(devices)
	out.layer["lot_turnaround_p50_ms"] = quantile(tas, 0.5)
	out.layer["lot_turnaround_p95_ms"] = quantile(tas, 0.95)
	out.e2e["lot_ok_ratio"] = float64(inTime(lots, ok, localLimit)) / float64(n)
	out.e2e["misbin_ratio"] = float64(misbins) / float64(devices)
	out.e2e["max_rss_mb"] = w.peakRSSMB
	out.counts = map[string]any{
		"lots": n, "devices": devices, "insertions": insertions,
		"fsyncs": jfs.syncs.Load(), "journal_bytes": jfs.bytes.Load(),
		"misbins": misbins, "fallbacks": fallbacks, "fixture": fmt.Sprintf("%016x", f.engine.Fingerprint()),
	}

	if rc.trace {
		L := out.layer
		servingLayers(L, st, devices, n, rc.workers, w, jfs)
		L["lotserver.hedge_dup_ratio"] = float64(dups) / float64(devices)
		L["lotserver.dispatch_wait_ms_p50"], L["lotserver.dispatch_wait_ms_p99"] = hooked.waits(lots)
		L["floor.insertions_per_device"] = float64(insertions) / float64(devices)
		L["floor.fallback_ratio"] = float64(fallbacks) / float64(devices)
		L["floor.misbin_ratio"] = float64(misbins) / float64(devices)
		L["harness.gen_lag_ms_p99"] = genLagP99(lots)
		if err := kernelProbes(L, f, f.pool[:64], specs[0].Seed, out.tr); err != nil {
			return nil, err
		}
		// No wire, shadow queue or offline stage runs in this workload.
		absent(L, "modelreg.", "netfloor.", "core.signature_sensitivity_ms", "regress.", "linalg.")
	}
	return out, nil
}

// dispatchLog records, through lotserver.Options.Hook, when each lot's
// first device was handed to a worker.
type dispatchLog struct {
	mu    sync.Mutex
	first map[string]time.Time
}

func newDispatchLog() *dispatchLog { return &dispatchLog{first: map[string]time.Time{}} }

func (d *dispatchLog) hook(lotID string, device int) {
	now := time.Now()
	d.mu.Lock()
	if _, ok := d.first[lotID]; !ok {
		d.first[lotID] = now
	}
	d.mu.Unlock()
}

// waits returns the p50 and p99 of submit → first dispatch.
func (d *dispatchLog) waits(lots []*lotOutcome) (float64, float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var w []float64
	for _, l := range lots {
		if t, ok := d.first[l.spec.ID]; ok {
			w = append(w, ms(t.Sub(l.sent)))
		}
	}
	return quantile(w, 0.5), quantile(w, 0.99)
}

// closedLoop keeps localWindow lots outstanding until every spec has
// completed. A lot is due the moment a slot frees for it.
func closedLoop(srv *lotserver.Server, specs []lotserver.LotSpec, tr *tracer) ([]*lotOutcome, window) {
	ctx, cancel := context.WithTimeout(context.Background(), loopDeadline)
	defer cancel()
	lots := make([]*lotOutcome, len(specs))
	done := make(chan int, len(specs))
	m := startMeter()
	due := m.u0.wall
	next, inflight := 0, 0
	for completed := 0; completed < len(specs); {
		for inflight < localWindow && next < len(specs) {
			i := next
			l := &lotOutcome{spec: specs[i], due: due, sent: time.Now()}
			lots[i] = l
			next++
			h, err := srv.Submit(ctx, l.spec)
			if err != nil {
				l.err, l.done = err, time.Now()
				done <- i
			} else {
				go func() {
					l.res, l.err = h.Wait(ctx)
					l.done = time.Now()
					done <- i
				}()
			}
			inflight++
		}
		i := <-done
		inflight--
		completed++
		due = lots[i].done
		tr.add("lotserver.lot", lots[i].spec.ID, lots[i].sent, lots[i].done, true)
	}
	return lots, m.end()
}

// verifyLocal re-screens localSamples seeded devices of every lot through
// the serial ScreenDevice path, and one seeded lot end to end through the
// serial RunLot, comparing bit for bit.
func verifyLocal(rc *runCtx, f *fixture, lots []*lotOutcome, ok []bool, out *outcome) {
	vr := rand.New(rand.NewSource(rc.seed ^ 0x5eed))
	type check struct{ lot, idx int }
	var checks []check
	for i := range lots {
		for s := 0; s < localSamples; s++ {
			checks = append(checks, check{i, vr.Intn(localLotDevices)})
		}
	}
	full := vr.Intn(len(lots))
	bad := make([]bool, len(checks))
	ctx := context.Background()
	parallel.ForEach(rc.workers, len(checks), func(c int) error {
		l := lots[checks[c].lot]
		if !ok[checks[c].lot] {
			return nil // already failed its shape check
		}
		idx := checks[c].idx
		ref := f.engine.ScreenDevice(ctx, idx, f.pool[idx], core.DeviceSeed(l.spec.Seed, idx), f.faults)
		bad[c] = !sameResult(ref, l.res.Report.Results[idx])
		return nil
	})
	for c, b := range bad {
		if b {
			l := lots[checks[c].lot]
			out.problem("lot %s device %d differs from the serial ScreenDevice reference", l.spec.ID, checks[c].idx)
			ok[checks[c].lot] = false
		}
	}
	if l := lots[full]; ok[full] {
		ref, err := f.engine.RunLot(l.spec.Seed, f.pool[:localLotDevices], f.faults)
		if err != nil {
			out.problem("serial RunLot of lot %s: %v", l.spec.ID, err)
			ok[full] = false
			return
		}
		if !sameReport(ref, l.res.Report) {
			out.problem("lot %s differs from the serial RunLot reference", l.spec.ID)
			ok[full] = false
		}
	}
}

func sameReport(ref, got *floor.LotReport) bool {
	if ref.Devices != got.Devices || ref.Pass != got.Pass || ref.Fail != got.Fail ||
		ref.Fallback != got.Fallback || ref.Escapes != got.Escapes || ref.Overkill != got.Overkill ||
		len(ref.Results) != len(got.Results) {
		return false
	}
	for i := range ref.Results {
		if !sameResult(ref.Results[i], got.Results[i]) {
			return false
		}
	}
	return true
}

// servingLayers fills the per-layer metrics both serving workloads share.
func servingLayers(L map[string]float64, st lotserver.Status, devices, lots, workers int, w window, jfs *journalFS) {
	d := float64(devices)
	L["lotserver.device_latency_p50_ms"] = st.LatencyP50Ms
	L["lotserver.device_latency_p99_ms"] = st.LatencyP99Ms
	L["lotserver.shed_ratio"] = float64(st.ShedSaturated) / float64(lots)
	L["lotrun.fsyncs_per_device"] = float64(jfs.syncs.Load()) / d
	L["lotrun.journal_bytes_per_device"] = float64(jfs.bytes.Load()) / d
	jfs.mu.Lock()
	L["lotrun.fsync_ms_p50"] = quantile(jfs.fsyncMs, 0.5)
	L["lotrun.fsync_ms_p99"] = quantile(jfs.fsyncMs, 0.99)
	jfs.mu.Unlock()
	// Time spent in journal Write and Sync over the host's capacity for
	// the window (nproc × wall time).
	L["lotrun.journal_busy_share"] = float64(jfs.busyNs.Load()) / (float64(workers) * float64(w.wall.Nanoseconds()))
	L["go.alloc_bytes_per_device"] = float64(w.alloc) / d
	L["go.mallocs_per_device"] = float64(w.mallocs) / d
	L["go.gc_cpu_fraction"] = w.gcCPUFraction
}

func genLagP99(lots []*lotOutcome) float64 {
	var lag []float64
	for _, l := range lots {
		lag = append(lag, ms(l.sent.Sub(l.due)))
	}
	return quantile(lag, 0.99)
}

// --------------------------------------------------------------- remote

type remoteSvc struct {
	srv    *lotserver.Server
	jfs    *journalFS
	ws     *wireStats
	client *lotserver.Client
	dir    string
	stop   func()
}

// startRemote brings up the site, the registry with a shadow candidate,
// the server and one client connection, all over loopback TCP.
func startRemote(rc *runCtx, dir string, f *fixture, tr *tracer, ws *wireStats) (*remoteSvc, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	svc := &remoteSvc{jfs: newJournalFS(tr), ws: ws, dir: dir}
	fail := func(err error) (*remoteSvc, error) {
		if svc.client != nil {
			svc.client.Close()
		}
		if svc.srv != nil {
			svc.srv.Kill()
		}
		cancel()
		wg.Wait()
		return nil, err
	}

	siteLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	site := &netfloor.Site{
		Name: "site0", Engine: f.engine, Lot: f.pool, Faults: f.faults,
		HeartbeatInterval: heartbeat, IdleTimeout: idle, MaxBatch: batchK,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		siteLn.Close()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := siteLn.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				site.ServeConn(ctx, ws.wrap(c, false))
			}()
		}
	}()

	reg, err := modelreg.Open(filepath.Join(dir, "registry"))
	if err != nil {
		return fail(err)
	}
	siteAddr := siteLn.Addr().String()
	svc.srv, err = lotserver.New(lotserver.Options{
		Engine: f.engine, Pool: f.pool, Faults: f.faults,
		JournalDir: filepath.Join(dir, "journals"),
		FS:         svc.jfs,
		Sites:      []string{siteAddr},
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			c, err := netfloor.TCPDialer(ctx, addr)
			if err != nil {
				return nil, err
			}
			return ws.wrap(c, true), nil
		},
		LocalWorkers:      0,
		Batch:             batchK,
		HeartbeatInterval: heartbeat,
		IdleTimeout:       idle,
		Registry:          reg,
		// No verdict can be reached within a run: shadow scoring is pure
		// measured work, never a rollback.
		ShadowBounds: modelreg.Bounds{MinSamples: math.MaxInt32},
	})
	if err != nil {
		return fail(err)
	}
	v, err := svc.srv.StageCandidate(f.cal, f.gate, "restaged incumbent for shadow scoring")
	if err != nil {
		return fail(err)
	}
	if err := svc.srv.BeginShadow(v); err != nil {
		return fail(err)
	}

	cliLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	var ln net.Listener = cliLn
	if ws != nil {
		ln = wireListener{Listener: cliLn, ws: ws}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		svc.srv.ServeClients(ln)
	}()
	conn, err := net.Dial("tcp", cliLn.Addr().String())
	if err != nil {
		cliLn.Close()
		return fail(err)
	}
	svc.client = lotserver.NewClient(ws.wrap(conn, false), lotserver.ClientOptions{HeartbeatInterval: heartbeat, IdleTimeout: idle})
	svc.stop = func() {
		svc.client.Close()
		svc.srv.Kill()
		cliLn.Close()
		cancel()
		wg.Wait()
	}
	return svc, nil
}

// remoteSchedule draws the open-loop arrival offsets and lot sizes from
// the workload seed alone. Both are stratified: the n inter-arrival gaps
// are the n exponential quantiles at (i+½)/n and the n sizes the
// log-uniform quantiles, each put in a seeded random order. Every seed
// thus offers the same gap and size distribution (and the same total
// devices) in a different sequence, so run-to-run spread measures the
// program, not how many large lots a seed happened to draw.
func remoteSchedule(seed int64, n int) ([]lotserver.LotSpec, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n)
	sizes := make([]int, n)
	lo, hi := math.Log(remoteMinDev), math.Log(remoteMaxDev+1)
	for i := range gaps {
		q := (float64(i) + 0.5) / float64(n)
		gaps[i] = -math.Log(1-q) / remoteRate
		sizes[i] = min(int(math.Exp(lo+q*(hi-lo))), remoteMaxDev)
	}
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	specs := make([]lotserver.LotSpec, n)
	offsets := make([]time.Duration, n)
	t := 0.0
	for i := range specs {
		t += gaps[i]
		offsets[i] = time.Duration(t * float64(time.Second))
		specs[i] = lotserver.LotSpec{ID: fmt.Sprintf("R%05d", i), Seed: rng.Int63(), Devices: sizes[i]}
	}
	return specs, offsets
}

// openLoop sends every lot at its due time on the one client connection
// and waits for all of them; the window closes when the last lot has
// returned and the shadow scorer has caught up with every commit.
func openLoop(svc *remoteSvc, specs []lotserver.LotSpec, offsets []time.Duration, devices int, tr *tracer) ([]*lotOutcome, window, error) {
	ctx, cancel := context.WithTimeout(context.Background(), loopDeadline)
	defer cancel()
	lots := make([]*lotOutcome, len(specs))
	var wg sync.WaitGroup
	m := startMeter()
	start := m.u0.wall
	for i := range specs {
		due := start.Add(offsets[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		l := &lotOutcome{spec: specs[i], due: due, sent: time.Now()}
		lots[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.sum, l.err = svc.client.Run(ctx, l.spec)
			l.done = time.Now()
			tr.add("lotserver.lot", l.spec.ID, l.due, l.done, true)
		}()
	}
	wg.Wait()
	for {
		rs := svc.srv.RolloutStatus()
		if rs.Shadow != nil && rs.Shadow.Scored+rs.Shadow.Dropped >= devices {
			break
		}
		if ctx.Err() != nil {
			m.end()
			return nil, window{}, fmt.Errorf("shadow scorer did not catch up with %d commits", devices)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return lots, m.end(), nil
}

func runRemoteOpenShadow(rc *runCtx) (*outcome, error) {
	n := max(minLots, int(math.Round(remoteRate*float64(rc.seconds))))
	if rc.trace {
		// A traced run makes two passes (untraced baseline, traced); each
		// takes the first half of the schedule to stay inside the run's
		// time limit.
		n /= 2
	}
	f, svc, out, err := servingSetup(rc, n, func(f *fixture) (*remoteSvc, error) {
		return startRemote(rc, filepath.Join(rc.dir, "untraced"), f, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	specs, offsets := remoteSchedule(rc.seed, n)
	devices := 0
	for _, s := range specs {
		devices += s.Devices
	}
	lots, w, err := openLoop(svc, specs, offsets, devices, nil)
	if err != nil {
		svc.stop()
		return nil, err
	}
	if rc.trace {
		// The untraced pass above is the overhead baseline; repeat on a
		// fresh, traced service.
		base := w
		svc.stop()
		tr := newTracer()
		ws := newWireStats(tr)
		svc, err = startRemote(rc, filepath.Join(rc.dir, "traced"), f, tr, ws)
		if err != nil {
			return nil, err
		}
		lots, w, err = openLoop(svc, specs, offsets, devices, tr)
		if err != nil {
			svc.stop()
			return nil, err
		}
		out.tr = tr
		out.layer["harness.trace_overhead_ratio"] = ms(w.cpu) / ms(base.cpu)
	}
	st := svc.srv.Status()
	rs := svc.srv.RolloutStatus()
	svc.stop()

	// Verification, outside the timed window: every journal read back
	// against its wire summary, every fourth lot (from a seeded offset)
	// re-run through the serial RunLot, and the shadow scorer's serial
	// re-screen of every device agreeing with the committed bin.
	ok := make([]bool, n)
	refs := make([]*floor.LotReport, n)
	offset := int(rc.seed % remoteFullChecks)
	if err := parallel.ForEach(rc.workers, n, func(i int) error {
		if i%remoteFullChecks != offset {
			return nil
		}
		var err error
		refs[i], err = f.engine.RunLot(specs[i].Seed, f.pool[:specs[i].Devices], f.faults)
		return err
	}); err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	committed, insertions, misbins, fallbacks := 0, 0, 0, 0
	for i, l := range lots {
		if l.err != nil {
			out.problem("lot %s: %v", l.spec.ID, l.err)
			continue
		}
		ins, good := verifyRemoteLot(svc, l, refs[i], f, out)
		if !good {
			continue
		}
		ok[i] = true
		committed += l.sum.Devices
		misbins += l.sum.Escapes + l.sum.Overkill
		fallbacks += l.sum.Fallback
		insertions += ins
	}
	okLots := 0
	for _, v := range ok {
		if v {
			okLots++
		}
	}
	out.failed = n - okLots
	scored, dropped := 0, 0
	if rs.Shadow != nil {
		scored, dropped = rs.Shadow.Scored, rs.Shadow.Dropped
		if rs.Shadow.Disagree != 0 {
			out.problem("shadow re-screen disagreed with %d committed bins", rs.Shadow.Disagree)
		}
	}
	if dropped != 0 {
		out.problem("shadow queue dropped %d of %d devices", dropped, devices)
	}
	if rs.Stage != modelreg.StageShadow {
		out.problem("rollout left the shadow stage (stage %q)", rs.Stage)
	}

	tas := turnarounds(lots)
	out.layer["devices_per_s"] = float64(committed) / w.wall.Seconds()
	out.e2e["cpu_ms_per_device"] = ms(w.cpu) / float64(max(committed, 1))
	out.layer["lot_turnaround_p50_ms"] = quantile(tas, 0.5)
	out.layer["lot_turnaround_p95_ms"] = quantile(tas, 0.95)
	out.e2e["lot_ok_ratio"] = float64(inTime(lots, ok, remoteLimit)) / float64(n)
	out.e2e["misbin_ratio"] = float64(misbins) / float64(max(committed, 1))
	out.e2e["max_rss_mb"] = w.peakRSSMB
	out.counts = map[string]any{
		"lots": n, "devices": committed, "insertions": insertions,
		"fsyncs": svc.jfs.syncs.Load(), "journal_bytes": svc.jfs.bytes.Load(),
		"shadow_scored": scored, "misbins": misbins, "fallbacks": fallbacks,
		"fixture": fmt.Sprintf("%016x", f.engine.Fingerprint()),
	}

	if rc.trace {
		L := out.layer
		d := float64(max(committed, 1))
		servingLayers(L, st, committed, n, rc.workers, w, svc.jfs)
		L["lotserver.hedge_dup_ratio"] = float64(svc.ws.results.Load()-int64(committed)) / d
		L["lotserver.dispatch_wait_ms_p50"], L["lotserver.dispatch_wait_ms_p99"] = dispatchWaits(svc.ws, lots)
		L["modelreg.shadow_scored_ratio"] = float64(scored) / d
		L["modelreg.shadow_drop_ratio"] = float64(dropped) / d
		L["netfloor.wire_bytes_per_device"] = float64(svc.ws.bytes.Load()) / d
		L["netfloor.conn_writes_per_device"] = float64(svc.ws.writes.Load()) / d
		svc.ws.mu.Lock()
		L["netfloor.assign_rtt_ms_p50"] = quantile(svc.ws.rttMs, 0.5)
		L["netfloor.assign_rtt_ms_p99"] = quantile(svc.ws.rttMs, 0.99)
		svc.ws.mu.Unlock()
		L["floor.insertions_per_device"] = float64(insertions) / d
		L["floor.fallback_ratio"] = float64(fallbacks) / d
		L["floor.misbin_ratio"] = float64(misbins) / d
		L["harness.gen_lag_ms_p99"] = genLagP99(lots)
		if err := kernelProbes(L, f, f.pool[:remoteMaxDev], specs[0].Seed, out.tr); err != nil {
			return nil, err
		}
		if err := shadowProbe(L, f, f.pool[:batchK], specs[0].Seed, out.tr); err != nil {
			return nil, err
		}
		// No offline stage runs in this workload.
		absent(L, "modelreg.stage_ms", "core.signature_sensitivity_ms", "regress.", "linalg.")
	}
	return out, nil
}

// verifyRemoteLot reads one lot's journal back, checks that it folds to
// the wire summary, and, when ref is set, that both match the serial
// reference device by device. It returns the lot's insertions.
func verifyRemoteLot(svc *remoteSvc, l *lotOutcome, ref *floor.LotReport, f *fixture, out *outcome) (int, bool) {
	path := filepath.Join(svc.dir, "journals", l.spec.ID+".journal")
	hdr, done, _, _, err := lotrun.ReplayJournalFS(diskfault.OS, path)
	if err != nil {
		out.problem("lot %s: journal replay: %v", l.spec.ID, err)
		return 0, false
	}
	if hdr.LotSeed != l.spec.Seed || hdr.Devices != l.spec.Devices || len(done) != l.spec.Devices {
		out.problem("lot %s: journal holds %d of %d devices (seed %d)", l.spec.ID, len(done), l.spec.Devices, hdr.LotSeed)
		return 0, false
	}
	rep := f.engine.NewReport(l.spec.Devices)
	insertions := 0
	for i := 0; i < l.spec.Devices; i++ {
		r := done[i]
		if ref != nil && !sameResult(ref.Results[i], r) {
			out.problem("lot %s device %d: journal differs from the serial RunLot reference", l.spec.ID, i)
			return 0, false
		}
		rep.Fold(r)
		insertions += r.Insertions
	}
	s := l.sum
	if s.Devices != rep.Devices || s.Pass != rep.Pass || s.Fail != rep.Fail || s.Fallback != rep.Fallback ||
		s.Escapes != rep.Escapes || s.Overkill != rep.Overkill || s.Replayed != 0 || s.JournalDegraded {
		out.problem("lot %s: wire summary %+v does not match its journal", l.spec.ID, *s)
		return 0, false
	}
	return insertions, true
}

// dispatchWaits returns the p50 and p99 remote dispatch wait: due time →
// the lot's first assignment frame on the wire.
func dispatchWaits(ws *wireStats, lots []*lotOutcome) (float64, float64) {
	first := map[string]int64{}
	ws.tr.mu.Lock()
	for _, s := range ws.tr.spans {
		if s.Name == "netfloor.assign_rtt" {
			if t, ok := first[s.Lot]; !ok || s.StartNs < t {
				first[s.Lot] = s.StartNs
			}
		}
	}
	ws.tr.mu.Unlock()
	var w []float64
	for _, l := range lots {
		if t, ok := first[l.spec.ID]; ok {
			w = append(w, float64(t-l.due.Sub(ws.tr.t0).Nanoseconds())/1e6)
		}
	}
	return quantile(w, 0.5), quantile(w, 0.99)
}
