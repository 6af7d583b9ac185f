package main

// Tracing for the per-layer run. Spans are recorded only from the
// benchmark's own code: around its calls into each layer, and inside the
// seams the program already exports (the journal filesystem, the site and
// client connections, the dispatch hook). They stay in memory and are
// written out when the run ends.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskfault"
)

// span is one timed call at a layer boundary. Name is "layer.operation";
// Lot groups the spans of one lot (or one recalibration) under its root.
type span struct {
	Name    string `json:"name"`
	Lot     string `json:"lot,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Root    bool   `json:"root,omitempty"`
}

// tracer collects spans; a nil *tracer records nothing, so untraced runs
// pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, lot string, start, end time.Time, root bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Lot: lot, Root: root,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// durations returns every recorded duration (ms) of one span name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stageRow is one line of the stage table.
type stageRow struct {
	layer      string
	count      int
	selfMs     float64
	blockShare float64
}

// stageTable computes, per layer, the self time of its spans and its
// share of the blocking path. Spans below a root are leaves, so a leaf's
// self time is its duration and a root's is its duration minus the union
// of its lot's leaves. A layer's share of the blocking path is the union
// of its leaves inside each root, summed over roots, divided by the summed
// root durations; the root layer's share is the uncovered rest. Leaves of
// different layers can overlap inside one lot (the journal commits one
// result while the site screens the next), so shares may add up past 1.
func (t *tracer) stageTable() []stageRow {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	roots := map[string]span{}
	for _, s := range spans {
		if s.Root {
			roots[s.Lot] = s
		}
	}
	rows := map[string]*stageRow{}
	row := func(layer string) *stageRow {
		if rows[layer] == nil {
			rows[layer] = &stageRow{layer: layer}
		}
		return rows[layer]
	}
	covered := map[string][][2]int64{}            // lot -> every leaf inside its root
	byLayer := map[string]map[string][][2]int64{} // layer -> lot -> its leaves
	for _, s := range spans {
		if s.Root {
			continue
		}
		rw := row(layerOf(s.Name))
		rw.count++
		rw.selfMs += float64(s.EndNs-s.StartNs) / 1e6
		r, ok := roots[s.Lot]
		if !ok || s.Lot == "" {
			continue
		}
		iv := [2]int64{max(s.StartNs, r.StartNs), min(s.EndNs, r.EndNs)}
		if iv[1] <= iv[0] {
			continue
		}
		covered[s.Lot] = append(covered[s.Lot], iv)
		l := layerOf(s.Name)
		if byLayer[l] == nil {
			byLayer[l] = map[string][][2]int64{}
		}
		byLayer[l][s.Lot] = append(byLayer[l][s.Lot], iv)
	}
	var rootTotal float64
	for lot, r := range roots {
		d := float64(r.EndNs - r.StartNs)
		rootTotal += d
		rw := row(layerOf(r.Name))
		rw.count++
		self := d - float64(union(covered[lot]))
		rw.selfMs += self / 1e6
		rw.blockShare += self
	}
	for l, lots := range byLayer {
		for _, ivs := range lots {
			row(l).blockShare += float64(union(ivs))
		}
	}
	out := make([]stageRow, 0, len(rows))
	for _, rw := range rows {
		if rootTotal > 0 {
			rw.blockShare /= rootTotal
		}
		out = append(out, *rw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMs > out[j].selfMs })
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// union is the total length covered by a set of intervals.
func union(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	started := false
	for _, iv := range ivs {
		if !started || iv[0] > curE {
			if started {
				total += curE - curS
			}
			curS, curE, started = iv[0], iv[1], true
		} else if iv[1] > curE {
			curE = iv[1]
		}
	}
	if started {
		total += curE - curS
	}
	return total
}

func printStageTable(w io.Writer, workload string, rows []stageRow) {
	fmt.Fprintf(w, "stage table (%s): layer, spans, self ms, share of blocking path\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %8d %12.1f %7.1f%%\n", r.layer, r.count, r.selfMs, 100*r.blockShare)
	}
}

// journalFS wraps the journal filesystem seam (lotserver.Options.FS,
// modelreg.OpenFS). It always counts journal fsyncs and bytes — the
// deterministic per-run counts — and, with a tracer, times every journal
// Write and Sync.
type journalFS struct {
	diskfault.FS
	tr *tracer

	syncs, bytes atomic.Int64
	busyNs       atomic.Int64

	mu      sync.Mutex
	fsyncMs []float64
}

func newJournalFS(tr *tracer) *journalFS { return &journalFS{FS: diskfault.OS, tr: tr} }

func (f *journalFS) OpenFile(name string, flag int, perm fs.FileMode) (diskfault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".journal") {
		return file, err
	}
	return &journalFile{File: file, fs: f, lot: strings.TrimSuffix(filepath.Base(name), ".journal")}, nil
}

func (f *journalFS) SyncDir(dir string) error {
	f.syncs.Add(1)
	return f.FS.SyncDir(dir)
}

type journalFile struct {
	diskfault.File
	fs  *journalFS
	lot string
}

func (jf *journalFile) Write(p []byte) (int, error) {
	jf.fs.bytes.Add(int64(len(p)))
	if jf.fs.tr == nil {
		return jf.File.Write(p)
	}
	start := time.Now()
	n, err := jf.File.Write(p)
	end := time.Now()
	jf.fs.busyNs.Add(end.Sub(start).Nanoseconds())
	jf.fs.tr.add("lotrun.journal_write", jf.lot, start, end, false)
	return n, err
}

func (jf *journalFile) Sync() error {
	jf.fs.syncs.Add(1)
	if jf.fs.tr == nil {
		return jf.File.Sync()
	}
	start := time.Now()
	err := jf.File.Sync()
	end := time.Now()
	jf.fs.busyNs.Add(end.Sub(start).Nanoseconds())
	jf.fs.mu.Lock()
	jf.fs.fsyncMs = append(jf.fs.fsyncMs, ms(end.Sub(start)))
	jf.fs.mu.Unlock()
	jf.fs.tr.add("lotrun.fsync", jf.lot, start, end, false)
	return err
}

// wireStats counts bytes and Write calls across every wrapped connection
// of the site and client protocols, and times assignment round trips.
type wireStats struct {
	tr                     *tracer
	bytes, writes, results atomic.Int64

	mu     sync.Mutex
	rttMs  []float64
	assign map[uint64]*pendingAssign
}

type pendingAssign struct {
	lot     string
	start   time.Time
	devices int
}

func newWireStats(tr *tracer) *wireStats {
	return &wireStats{tr: tr, assign: map[uint64]*pendingAssign{}}
}

// wireConn counts one endpoint's writes. On the coordinator's end of a
// site connection (sniff true) it also decodes the frames in both
// directions to pair each assignment with its last result.
type wireConn struct {
	net.Conn
	ws    *wireStats
	sniff bool
	wbuf  []byte
	rbuf  []byte
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.ws.writes.Add(1)
	c.ws.bytes.Add(int64(len(p)))
	if c.sniff {
		c.wbuf = c.ws.frames(append(c.wbuf, p...), true)
	}
	return c.Conn.Write(p)
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.sniff && n > 0 {
		c.rbuf = c.ws.frames(append(c.rbuf, p[:n]...), false)
	}
	return n, err
}

// frames consumes whole length+CRC frames from buf and returns the rest.
func (ws *wireStats) frames(buf []byte, outbound bool) []byte {
	for len(buf) >= 8 {
		n := int(binary.BigEndian.Uint32(buf[0:4]))
		if len(buf) < 8+n {
			break
		}
		var env struct {
			Type    string `json:"type"`
			Seq     uint64 `json:"seq"`
			Lot     string `json:"lot"`
			Devices []int  `json:"devices"`
		}
		if json.Unmarshal(buf[8:8+n], &env) == nil {
			now := time.Now()
			ws.mu.Lock()
			switch {
			case outbound && env.Type == "assign":
				ws.assign[env.Seq] = &pendingAssign{lot: env.Lot, start: now, devices: max(1, len(env.Devices))}
			case !outbound && env.Type == "result":
				ws.results.Add(1)
				if pa := ws.assign[env.Seq]; pa != nil {
					if pa.devices--; pa.devices == 0 {
						delete(ws.assign, env.Seq)
						ws.rttMs = append(ws.rttMs, ms(now.Sub(pa.start)))
						ws.tr.add("netfloor.assign_rtt", pa.lot, pa.start, now, false)
					}
				}
			}
			ws.mu.Unlock()
		}
		buf = buf[8+n:]
	}
	return buf
}

func (ws *wireStats) wrap(c net.Conn, sniff bool) net.Conn {
	if ws == nil {
		return c
	}
	return &wireConn{Conn: c, ws: ws, sniff: sniff}
}

// wireListener wraps every accepted connection.
type wireListener struct {
	net.Listener
	ws *wireStats
}

func (l wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.ws.wrap(c, false), nil
}
