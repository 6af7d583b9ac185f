// Command perfbench is the repository's fixed-work benchmark. It drives
// the public APIs of the screening service, the distributed floor, the
// journal, the model registry and the signature-test core from outside,
// checks every output against the serial reference, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	go run . --workload local-saturated --seed 1 --seconds 15 --trace 0
//
// run it from the repository root (perfbench/run.sh builds it there).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in every workload.
// Wall-clock throughput and latency are not among them: on a shared
// host they follow the neighbors' load (see README.md), so they are
// reported per layer and in every run's context line.
var endToEnd = []metricDef{
	{"cpu_ms_per_device", "ms"},
	{"lot_ok_ratio", "ratio"},
	{"misbin_ratio", "ratio"},
	{"recal_val_rms_db", "dB"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, in every workload; a
// layer a workload never enters reports 0 (see README.md).
var perLayer = []metricDef{
	{"devices_per_s", "1/s"},
	{"lot_turnaround_p50_ms", "ms"},
	{"lot_turnaround_p95_ms", "ms"},
	{"lotserver.dispatch_wait_ms_p50", "ms"},
	{"lotserver.dispatch_wait_ms_p99", "ms"},
	{"lotserver.device_latency_p50_ms", "ms"},
	{"lotserver.device_latency_p99_ms", "ms"},
	{"lotserver.hedge_dup_ratio", "ratio"},
	{"lotserver.shed_ratio", "ratio"},
	{"modelreg.shadow_scored_ratio", "ratio"},
	{"modelreg.shadow_drop_ratio", "ratio"},
	{"modelreg.shadow_observe_ms", "ms"},
	{"modelreg.stage_ms", "ms"},
	{"lotrun.fsyncs_per_device", "count"},
	{"lotrun.journal_bytes_per_device", "B"},
	{"lotrun.fsync_ms_p50", "ms"},
	{"lotrun.fsync_ms_p99", "ms"},
	{"lotrun.journal_busy_share", "ratio"},
	{"netfloor.wire_bytes_per_device", "B"},
	{"netfloor.conn_writes_per_device", "count"},
	{"netfloor.assign_rtt_ms_p50", "ms"},
	{"netfloor.assign_rtt_ms_p99", "ms"},
	{"floor.screen_k16_us_per_device", "us"},
	{"floor.screen_k4_us_per_device", "us"},
	{"floor.screen_k1_us_per_device", "us"},
	{"floor.gate_us_per_device", "us"},
	{"floor.insertions_per_device", "count"},
	{"floor.fallback_ratio", "ratio"},
	{"floor.misbin_ratio", "ratio"},
	{"core.capture_us_per_device", "us"},
	{"core.predict_us_per_device", "us"},
	{"rf.run_devices_us_per_device", "us"},
	{"dsp.spectrum_us_per_device", "us"},
	{"core.optimize_stimulus_s", "s"},
	{"core.recalibrate_s", "s"},
	{"core.acquire_training_s", "s"},
	{"core.calibrate_s", "s"},
	{"core.validate_s", "s"},
	{"core.signature_sensitivity_ms", "ms"},
	{"regress.select_best_s", "s"},
	{"linalg.svd_ms", "ms"},
	{"go.alloc_bytes_per_device", "B"},
	{"go.mallocs_per_device", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"harness.gen_lag_ms_p99", "ms"},
	{"harness.trace_overhead_ratio", "ratio"},
}

// runCtx is what a workload needs from the command line.
type runCtx struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workers  int
	dir      string // scratch directory for journals and registries
}

// outcome is one workload run, verified.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string       // verification failures; any makes the run incorrect
	counts    map[string]any // deterministic counts, repeated exactly per seed
	tr        *tracer
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"local-saturated":    runLocalSaturated,
	"remote-open-shadow": runRemoteOpenShadow,
	"offline-recal":      runOfflineRecal,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "local-saturated, remote-open-shadow or offline-recal")
	seed := flag.Int64("seed", 1, "workload seed: lots, schedule and populations derive from it")
	seconds := flag.Int("seconds", 15, "nominal run length; the fixed work of a run is sized from it")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (local-saturated|remote-open-shadow|offline-recal), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := mainErr(run, &runCtx{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: runtime.GOMAXPROCS(0),
	}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(run func(*runCtx) (*outcome, error), rc *runCtx) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	base := filepath.Join(".bench_build", "perfbench")
	rc.dir = filepath.Join(base, fmt.Sprintf("run-%s-%d-%d", rc.workload, rc.seed, os.Getpid()))
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(rc.dir)

	probeBefore := hostProbe()
	stealBefore, totalBefore := cpuStat()
	out, err := run(rc)
	if err != nil {
		return err
	}
	stealAfter, totalAfter := cpuStat()
	probeAfter := hostProbe()
	steal := 0.0
	if totalAfter > totalBefore {
		steal = float64(stealAfter-stealBefore) / float64(totalAfter-totalBefore)
	}

	if err := checkCounts(filepath.Join(base, "counts"), rc, out); err != nil {
		return err
	}
	ctxLine, err := json.Marshal(runContext(rc, probeBefore, probeAfter, steal, out))
	if err != nil {
		return err
	}
	fmt.Printf("context %s\n", ctxLine)
	for _, p := range out.problems {
		fmt.Printf("verification failure: %s\n", p)
	}
	if out.tr != nil {
		printStageTable(os.Stdout, rc.workload, out.tr.stageTable())
		path := filepath.Join(base, fmt.Sprintf("trace-%s-seed%d.json", rc.workload, rc.seed))
		if err := out.tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}

	defs, values := endToEnd, out.e2e
	if rc.trace {
		defs, values = perLayer, out.layer
	}
	res := resultLine{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", rc.workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkCounts makes the fixed work of a run checkable: the first run of a
// (workload, seed, seconds, source digest) in this checkout records its
// deterministic counts, and every later run must repeat them exactly.
func checkCounts(dir string, rc *runCtx, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out.counts)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-s%d-trace%v-%s.json", rc.workload, rc.seed, rc.seconds, rc.trace, sourceDigest()))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if len(out.problems) == 0 {
			return os.WriteFile(path, data, 0o644)
		}
	case err != nil:
		return err
	case string(prev) != string(data):
		out.problem("deterministic counts %s differ from an earlier run of the same seed %s", data, prev)
	}
	return nil
}

// runContext records what the numbers were measured on.
func runContext(rc *runCtx, before, after, steal float64, out *outcome) map[string]any {
	return map[string]any{
		"workload":             rc.workload,
		"seed":                 rc.seed,
		"seconds":              rc.seconds,
		"trace":                rc.trace,
		"cpu_model":            cpuModel(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go_version":           runtime.Version(),
		"git_revision":         gitRevision(),
		"source_sha256":        sourceDigest(),
		"host_probe_ms_before": before,
		"host_probe_ms_after":  after,
		"host_steal_share":     steal,
		"counts":               out.counts,
		// Unbounded, and shown for every run: see README.md.
		"devices_per_s":         out.layer["devices_per_s"],
		"lot_turnaround_p50_ms": out.layer["lot_turnaround_p50_ms"],
		"lot_turnaround_p95_ms": out.layer["lot_turnaround_p95_ms"],
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat reads the host-wide steal and total CPU ticks from /proc/stat:
// the share of time a virtual machine's CPUs were taken by its neighbors.
func cpuStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			break
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// gitRevision reads HEAD without running git; a checkout that is not a
// repository reports "none" and the source digest identifies the code.
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
			return strings.TrimSpace(string(id))
		}
		return ref
	}
	return ref
}

// sourceDigest hashes every Go source and go.mod under the checkout, so a
// result names the exact code it measured even without git.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
