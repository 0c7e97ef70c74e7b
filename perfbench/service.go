package main

// The service workload: one closed-loop client against a cmd/symxd
// subprocess with a persistent store. The cold pass fills the store, a
// SIGTERM drain flushes it, a second daemon reopens it, and the warm pass
// sends the same jobs again.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"symmerge/internal/daemon"
)

// jobTimeout is the daemon's per-job deadline. No job of the workload
// comes near it; one that hits it fails.
const jobTimeout = "150s"

// symxd is one running daemon process.
type symxd struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	stderr bytes.Buffer
}

// startDaemon launches symxd on a store directory and waits until /healthz
// answers. It returns the seconds from launch to the first answer.
func (e *env) startDaemon(store string, parent int, name string) (*symxd, float64, error) {
	if e.symxd == "" {
		return nil, 0, fmt.Errorf("service workload needs -symxd")
	}
	id := e.tr.begin(name, "daemon", parent, "")
	defer e.tr.end(id)
	start := time.Now()
	d := &symxd{exited: make(chan struct{})}
	d.cmd = exec.Command(e.symxd, "-addr", "127.0.0.1:0", "-store", store, "-max-jobs", "1",
		"-default-timeout", jobTimeout, "-max-timeout", jobTimeout)
	// The daemon dies with the harness, whatever ends it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				a, _, _ := strings.Cut(rest, "/")
				addr <- a
			}
			d.stderr.WriteString(line + "\n")
		}
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, 0, fmt.Errorf("symxd exited at start: %s", d.stderr.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("symxd did not report its address")
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start).Seconds(), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("symxd /healthz did not answer")
		}
		time.Sleep(time.Millisecond)
	}
}

// daemonSampler samples the time from launching symxd until /healthz
// answers; first is the real start's. Each later sample starts a daemon on
// a fresh directory filled by fill (which may leave it empty) and drains
// it again, while the measured daemon sits idle between two jobs.
func (e *env) daemonSampler(first float64, total, parent int, fill func(dir string) error) *sampler {
	return &sampler{total: total, times: []float64{first}, take: func() (float64, error) {
		dir, err := os.MkdirTemp(e.scratch, "sample-store-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		if err := fill(dir); err != nil {
			return 0, err
		}
		d, t, err := e.startDaemon(dir, parent, "symxd start sample")
		if err != nil {
			return 0, err
		}
		_, err = d.stop(true)
		return t, err
	}}
}

// copyTree copies the directories and regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		switch {
		case de.IsDir():
			return os.MkdirAll(to, 0o755)
		case de.Type().IsRegular():
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(to, data, 0o644)
		}
		return nil
	})
}

// stop drains the daemon with SIGTERM (which flushes its store) and waits
// for it to exit. It returns the process's user plus system CPU seconds.
// An idle daemon may take the signal before its handler is installed; it
// then dies of it, which is fine with nothing to flush.
func (d *symxd) stop(idle bool) (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(90 * time.Second):
		d.kill()
		return 0, fmt.Errorf("symxd did not drain")
	}
	st := d.cmd.ProcessState
	ws, _ := st.Sys().(syscall.WaitStatus)
	if !st.Success() && !(idle && ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return 0, fmt.Errorf("symxd drain failed: %s: %s", st, d.stderr.String())
	}
	return st.UserTime().Seconds() + st.SystemTime().Seconds(), nil
}

// kill ends the process without a drain and waits for it.
func (d *symxd) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stats fetches /v1/stats.
func (d *symxd) stats() (*daemon.StatsDoc, error) {
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc daemon.StatsDoc
	return &doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// reply is one job as the client saw it.
type reply struct {
	latency, queue float64 // seconds from POST to the result / accepted event
	res            *daemon.JobResult
	tests          int
	err            string
}

// submit POSTs one job and reads its event stream to the end.
func (e *env) submit(d *symxd, j job, parent int) reply {
	s := sizes(j.Tool, e.workload)
	qce := j.Regime.QCE
	body, _ := json.Marshal(daemon.JobRequest{
		Source: j.Tool.Source, Label: j.name(), Merge: j.Regime.Name, QCE: &qce,
		Summaries: true, NArgs: s[0], ArgLen: s[1], StdinLen: s[2], Tests: true,
	})
	var r reply
	start := time.Now()
	id := e.tr.begin("POST /v1/jobs→result", "daemon", parent, j.name())
	defer e.tr.end(id)
	qid := e.tr.begin("POST /v1/jobs→accepted", "daemon.queue", id, j.name())
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		e.tr.end(qid)
		r.err = err.Error()
		return r
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev daemon.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.err = "bad event: " + err.Error()
			break
		}
		switch ev.Event {
		case "accepted":
			r.queue = time.Since(start).Seconds()
			e.tr.end(qid)
		case "test":
			r.tests++
		case "result":
			r.latency = time.Since(start).Seconds()
			r.res = ev.JobResult
		case "error":
			r.err = ev.Error
		}
	}
	if err := sc.Err(); err != nil && r.err == "" {
		r.err = err.Error()
	}
	io.Copy(io.Discard, resp.Body)
	if r.res == nil && r.err == "" {
		r.err = "stream ended without a result (HTTP " + strconv.Itoa(resp.StatusCode) + ")"
	}
	return r
}

// check compares one reply with the pinned outcome.
func (e *env) check(j job, r reply) {
	e.attempted++
	res := r.res
	switch {
	case r.err != "":
		e.fail(j, r.err)
	case !res.Completed || res.Interrupted != "none" || res.TimedOut:
		e.fail(j, fmt.Sprintf("did not complete (interrupted: %s, timed out: %v)", res.Interrupted, res.TimedOut))
	case r.tests != res.Tests:
		e.fail(j, fmt.Sprintf("streamed %d tests, result says %d", r.tests, res.Tests))
	default:
		e.compare(j, outcome{Sizes: sizes(j.Tool, e.workload), Paths: map[string]string{j.Regime.Name: res.Paths},
			Coverage: res.Coverage, Errors: res.ErrorsFound, Tests: res.Tests, Digest: res.CorpusDigest})
	}
}

// serviceRun is what one cold-restart-warm cycle measured.
type serviceRun struct {
	setup, compile, wall, cpu float64
	peakRSS                   float64
	rt                        goRuntime
	passWall                  [2]float64
	regimeWall, regimeCPU     map[string]float64
	replies                   []reply
	stats                     [2]*daemon.StatsDoc
}

// service runs the service workload: one cycle, whatever -seconds says,
// since a second cycle would start from an empty store again. A traced run
// makes the cycle twice, untraced and traced, and reports the overhead
// between them. The untraced cycle goes first on even seeds and second on
// odd ones, so over several seeds neither cycle always meets the cold page
// cache and binary.
func (e *env) service() error {
	root := e.tr.begin("run", "harness", 0, "")
	defer e.tr.end(root)
	var plain *serviceRun
	untraced := func() error {
		tr := e.tr
		id := tr.begin("untraced cycle", "untraced", root, "")
		e.tr = nil
		r, err := e.serviceCycle(0, "plain")
		e.tr = tr
		tr.end(id)
		plain = r
		return err
	}
	if e.tr != nil && e.seed%2 == 0 {
		if err := untraced(); err != nil {
			return err
		}
	}
	r, err := e.serviceCycle(root, "run")
	if err != nil {
		return err
	}
	if e.tr != nil && e.seed%2 != 0 {
		if err := untraced(); err != nil {
			return err
		}
	}

	e.vals["setup_s"] = r.setup
	e.vals["lang.compile_ms"] = r.compile * 1000
	e.vals["go.alloc_mb"] = r.rt.allocBytes / (1 << 20)
	e.vals["go.gc_cycles"] = r.rt.gcCycles
	e.vals["go.gc_cpu_s"] = r.rt.gcCPU
	e.vals["wall_s"] = r.wall
	e.vals["cpu_s"] = r.cpu
	e.vals["go.peak_rss_mb"] = r.peakRSS
	for reg, wall := range r.regimeWall {
		e.vals["core."+reg+"_s"] = wall
		e.vals[regimeCPUMetric[reg]] = r.regimeCPU[reg]
	}
	e.vals["service.cold_s"] = r.passWall[0]
	e.vals["service.warm_s"] = r.passWall[1]
	var lat, over, queue []float64
	for _, rp := range r.replies {
		if rp.res == nil {
			continue
		}
		lat = append(lat, rp.latency)
		over = append(over, rp.latency-rp.res.ElapsedSeconds)
		queue = append(queue, rp.queue)
		add := func(name string, v float64) { e.vals[name] += v }
		add("daemon.exec_s", rp.res.ElapsedSeconds)
		add("core.run_s", rp.res.ElapsedSeconds)
		add("core.steps", float64(rp.res.Steps))
		add("solver.queries", float64(rp.res.Queries))
		add("solver.cache_hits", float64(rp.res.CacheHits))
		add("solver.sat_calls", float64(rp.res.SATCalls))
		add("solver.stable_hits", float64(rp.res.StableHits))
		add("solver.stable_group_hits", float64(rp.res.StableGroupHits))
		add("summary.hits", float64(rp.res.SummaryHits))
		add("corpus.tests", float64(rp.res.Tests))
		add("corpus.exact_paths", float64(rp.res.ExactPaths))
	}
	e.vals["service.job_p50_ms"] = quantile(lat, 0.5) * 1000
	e.vals["service.job_p90_ms"] = quantile(lat, 0.9) * 1000
	e.vals["daemon.overhead_ms"] = quantile(over, 0.5) * 1000
	e.vals["daemon.queue_ms"] = quantile(queue, 0.5) * 1000
	if cold, warm := r.stats[0], r.stats[1]; cold != nil && warm != nil {
		e.vals["daemon.domains_rotated"] = float64(cold.DomainsRotated + warm.DomainsRotated)
		e.vals["expr.domain_nodes"] = float64(max(cold.DomainNodes, warm.DomainNodes))
		e.vals["summary.seeded"] = float64(warm.SeededSummaries)
		if st := warm.Store; st != nil {
			e.vals["store.cex_loaded"] = float64(st.CexLoaded)
			e.vals["store.lookup_hits"] = float64(st.LookupHits)
			e.vals["store.inserts"] = float64(st.Inserts)
			e.vals["store.segments"] = float64(st.Segments)
		}
	}
	if plain != nil {
		e.vals["obs.trace_overhead"] = r.wall/plain.wall - 1
	}
	return nil
}

// serviceCycle starts a daemon on a fresh store, runs the cold pass, drains
// it, reopens the store and runs the warm pass. Its set-up time is the
// median compile of the 47 models plus the median start on an empty store
// plus the median reopen of the filled store: the first sample of each is
// the real step, the others are spread over the passes (compiles over
// both, starts over the cold pass, reopens of copies of the drained store
// over the warm pass).
func (e *env) serviceCycle(parent int, name string) (r *serviceRun, err error) {
	cycle := e.tr.begin(name, "harness", parent, "")
	defer e.tr.end(cycle)
	sp := e.tr.begin("setup", "harness", cycle, "")
	_, compileS, err := e.compileAll(sp)
	if err != nil {
		return nil, err
	}
	store := filepath.Join(e.scratch, name+"-store")
	d, startS, err := e.startDaemon(store, sp, "symxd start")
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil && d != nil {
			d.kill()
		}
	}()

	r = &serviceRun{regimeWall: make(map[string]float64), regimeCPU: make(map[string]float64)}
	jobs := schedule(e.tools, workloadRegimes(e.workload), e.seed)
	compiles := e.compileSampler(compileS, 2*len(jobs), cycle)
	snapshot := filepath.Join(e.scratch, name+"-snapshot")
	starts := e.daemonSampler(startS, len(jobs), cycle, func(string) error { return nil })
	var reopens *sampler
	for pass := 0; pass < 2; pass++ {
		samples := starts
		if pass == 1 {
			// The restart: the cold daemon has drained; reopen its store.
			if err = copyTree(store, snapshot); err != nil {
				return nil, err
			}
			rs := e.tr.begin("restart", "harness", cycle, "")
			var reopenS float64
			d, reopenS, err = e.startDaemon(store, rs, "symxd restart")
			e.tr.end(rs)
			if err != nil {
				return nil, err
			}
			reopens = e.daemonSampler(reopenS, len(jobs), cycle, func(dir string) error { return copyTree(snapshot, dir) })
			samples = reopens
		}
		ps := e.tr.begin([]string{"cold pass", "warm pass"}[pass], "harness", cycle, "")
		var paused time.Duration
		start := time.Now()
		for k, j := range jobs {
			t := time.Now()
			if err = compiles.before(pass*len(jobs) + k); err == nil {
				err = samples.before(k)
			}
			paused += time.Since(t)
			if err != nil {
				return nil, err
			}
			// The client's runtime counters cover the jobs alone, not the
			// set-up samples between them.
			rt0, cpu0 := readGoRuntime(), taskCPU(d.cmd.Process.Pid)
			rp := e.submit(d, j, ps)
			r.rt = r.rt.add(readGoRuntime().sub(rt0))
			r.regimeWall[j.Regime.Name] += rp.latency
			r.regimeCPU[j.Regime.Name] += taskCPU(d.cmd.Process.Pid) - cpu0
			r.replies = append(r.replies, rp)
			e.check(j, rp)
			if rp.res != nil {
				e.tr.record(struct {
					Job  string            `json:"job"`
					Pass int               `json:"pass"`
					Res  *daemon.JobResult `json:"result"`
				}{j.name(), pass, rp.res})
			}
		}
		r.passWall[pass] = (time.Since(start) - paused).Seconds()
		e.tr.end(ps)
		if r.stats[pass], err = d.stats(); err != nil {
			return nil, err
		}
		e.tr.recordStats(r.stats[pass])
		pk := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		fmt.Fprintf(e.log, "%s pass %d: %.3fs, daemon peak RSS %.1f MB\n", name, pass, r.passWall[pass], pk)
		r.peakRSS = max(r.peakRSS, pk)
		var cpu float64
		if cpu, err = d.stop(false); err != nil {
			return nil, err
		}
		d = nil
		r.cpu += cpu
	}
	var startMed, reopenMed float64
	if r.compile, err = compiles.finish(); err != nil {
		return nil, err
	}
	if startMed, err = starts.finish(); err != nil {
		return nil, err
	}
	if reopenMed, err = reopens.finish(); err != nil {
		return nil, err
	}
	r.wall = r.passWall[0] + r.passWall[1]
	r.setup = r.compile + startMed + reopenMed
	return r, nil
}
