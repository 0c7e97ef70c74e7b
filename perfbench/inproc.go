package main

// The in-process corpus workload: canonical corpus emission through
// symx.Run, called directly with one exploring goroutine.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"symmerge/internal/analysis"
	"symmerge/internal/corpus"
	"symmerge/internal/qce"
	"symmerge/symx"
)

// setupSamples is how many timed samples of each set-up step a run takes;
// setup_s sums the steps' medians. One compile of all 47 models takes about
// 3 ms, short enough for one GC or one descheduling to swing it, so a
// compile sample compiles them setupBatch times (about 120 ms on a 2-vCPU
// host) and reports the time of one.
const (
	setupSamples = 15
	setupBatch   = 40
)

// sampler takes a run's samples of one set-up step: the first before any
// job, the rest spread evenly over the run's jobs, outside their timing.
// The host's speed drifts by tens of percent within minutes, so samples
// taken only at the start would follow the host's state in the run's first
// second; spread out, their median follows it over the whole run, as
// wall_s does.
type sampler struct {
	total int // jobs the samples are spread over
	take  func() (float64, error)
	times []float64
}

// before takes the samples due before job k (of total).
func (s *sampler) before(k int) error {
	for len(s.times) < min(setupSamples, 1+k*setupSamples/max(s.total, 1)) {
		t, err := s.take()
		if err != nil {
			return err
		}
		s.times = append(s.times, t)
	}
	return nil
}

// finish takes the samples still due after the last job and returns the
// median.
func (s *sampler) finish() (float64, error) {
	err := s.before(s.total)
	return median(s.times), err
}

// compileAll compiles every tool setupBatch times and returns the last set
// of programs with the time of one full compile.
func (e *env) compileAll(parent int) (map[string]*symx.Program, float64, error) {
	var progs map[string]*symx.Program
	runtime.GC()
	start := time.Now()
	for b := 0; b < setupBatch; b++ {
		progs = make(map[string]*symx.Program, len(e.tools))
		for _, t := range e.tools {
			id := e.tr.begin("symx.Compile", "lang", parent, t.Name)
			p, err := symx.Compile(t.Source)
			e.tr.end(id)
			if err != nil {
				return nil, 0, fmt.Errorf("compile %s: %w", t.Name, err)
			}
			progs[t.Name] = p
		}
	}
	return progs, time.Since(start).Seconds() / setupBatch, nil
}

// compileSampler samples compileAll; first is the real compile's time. The
// later samples' programs are dropped.
func (e *env) compileSampler(first float64, total, parent int) *sampler {
	return &sampler{total: total, times: []float64{first}, take: func() (float64, error) {
		id := e.tr.begin("setup sample", "harness", parent, "")
		defer e.tr.end(id)
		_, t, err := e.compileAll(id)
		return t, err
	}}
}

// staticAnalyses times the standalone static analyses over every program
// (traced runs only): the dataflow facts and the QCE tables each Run
// computes for itself.
func (e *env) staticAnalyses(progs map[string]*symx.Program, parent int) {
	var an, qc, instrs float64
	for _, t := range e.tools {
		p := progs[t.Name].Internal()
		instrs += float64(p.NumLocations())
		start := time.Now()
		id := e.tr.begin("analysis.Analyze", "analysis", parent, t.Name)
		analysis.Analyze(p)
		e.tr.end(id)
		an += time.Since(start).Seconds()
		start = time.Now()
		id = e.tr.begin("qce.Analyze", "qce", parent, t.Name)
		qce.Analyze(p, qce.DefaultParams())
		e.tr.end(id)
		qc += time.Since(start).Seconds()
	}
	e.vals["analysis.analyze_ms"] = an * 1000
	e.vals["qce.analyze_ms"] = qc * 1000
	e.vals["lang.ir_instrs"] = instrs
}

// runOut is one symx.Run as the harness saw it.
type runOut struct {
	wall, cpu, sys float64
	rt             goRuntime
	res            *symx.Result
	metrics        *symx.MetricsSnap
}

// explore runs one job in-process; dir, when set, receives its corpus.
// With traced set the run carries a metrics registry. layer names the
// run's span: "core" for the measured run, or the arm it belongs to.
func (e *env) explore(j job, p *symx.Program, dir string, traced bool, layer string, parent int) runOut {
	s := sizes(j.Tool, e.workload)
	cfg := symx.Config{
		Merge: j.Regime.Merge, UseQCE: j.Regime.QCE,
		NArgs: s[0], ArgLen: s[1], StdinLen: s[2],
		CorpusDir: dir, CorpusLabel: j.Tool.Name,
	}
	if traced {
		cfg.Metrics = symx.NewMetrics()
	}
	// Collect the previous job's garbage, and write the previous corpora
	// back to disk, outside the timed region: every job starts from the
	// same heap and a clean page cache, and pays for no one else's files.
	runtime.GC()
	if dir != "" {
		syscall.Sync()
	}
	id := e.tr.begin("symx.Run", layer, parent, j.name())
	rt0, cpu0, sys0, start := readGoRuntime(), processCPU(), processSys(), time.Now()
	res := symx.Run(p, cfg)
	out := runOut{wall: time.Since(start).Seconds(), cpu: processCPU() - cpu0, sys: processSys() - sys0, res: res}
	out.rt = readGoRuntime().sub(rt0)
	e.tr.end(id)
	out.metrics = cfg.Metrics.Snapshot()
	return out
}

// runProblem names why a run cannot pass, before its outputs are compared.
func runProblem(res *symx.Result, withCorpus bool) string {
	switch {
	case res.ConfigErr != nil:
		return "config: " + res.ConfigErr.Error()
	case !res.Completed || res.Interrupted != symx.IntrNone:
		return "did not complete (interrupted: " + res.Interrupted.String() + ")"
	case withCorpus && res.CorpusErr != nil:
		return "corpus: " + res.CorpusErr.Error()
	case res.Stats.TestGenFailures > 0:
		return fmt.Sprintf("%d test generation failures", res.Stats.TestGenFailures)
	}
	return ""
}

// pendingCorpus is a corpus directory checked after the timed region.
type pendingCorpus struct {
	job job
	dir string
	got outcome
}

// repeats reports whether pass runs job j. The first pass runs every job;
// later passes repeat the none and DSM+QCE jobs only. SSM+QCE is 60% of a
// pass and feeds no per-regime end-to-end metric, so the extra passes are
// spent where each second of run time buys the most steadiness.
func repeats(j job, pass int) bool {
	return pass == 0 || j.Regime.Name != "ssm"
}

// corpusRun runs the corpus workload in-process.
func (e *env) corpusRun() error {
	root := e.tr.begin("run", "harness", 0, "")
	defer e.tr.end(root)

	sp := e.tr.begin("setup", "harness", root, "")
	progs, compileS, err := e.compileAll(sp)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	if e.tr != nil {
		sp = e.tr.begin("static", "harness", root, "")
		e.staticAnalyses(progs, sp)
		e.tr.end(sp)
	}

	jobs := schedule(e.tools, workloadRegimes(e.workload), e.seed)
	runs := 0
	for pass := 0; pass < e.passes; pass++ {
		for _, j := range jobs {
			if repeats(j, pass) {
				runs++
			}
		}
	}
	compiles := e.compileSampler(compileS, runs, root)
	var pending []pendingCorpus
	var wallSum, plainWall, armWall, armQueries float64
	var rt goRuntime
	bestWall := make([]float64, len(jobs))
	bestCPU := make([]float64, len(jobs))
	done := 0
	for pass := 0; pass < e.passes; pass++ {
		ps := e.tr.begin(fmt.Sprintf("pass %d", pass), "harness", root, "")
		passCPU := make(map[string]float64)
		for k, j := range jobs {
			if !repeats(j, pass) {
				continue
			}
			if err := compiles.before(done); err != nil {
				return err
			}
			done++
			p := progs[j.Tool.Name]
			js := e.tr.begin("job", "harness", ps, j.name())
			dir := filepath.Join(e.scratch, fmt.Sprintf("p%d-%s-%s", pass, j.Tool.Name, j.Regime.Name))
			// A traced run pairs every job with an untraced twin, run
			// first on even jobs and second on odd ones, so the two arms
			// share the host's drift; their ratio is obs.trace_overhead.
			var plain runOut
			if e.tr != nil && k%2 == 0 {
				plain = e.explore(j, p, twinDir(dir), false, "untraced", js)
			}
			r := e.explore(j, p, dir, e.tr != nil, "core", js)
			if e.tr != nil && k%2 == 1 {
				plain = e.explore(j, p, twinDir(dir), false, "untraced", js)
			}
			if e.tr != nil {
				// The paired explore-only arm: same tool, regime and
				// sizes without a corpus, so the difference is the cost
				// of test generation.
				arm := e.explore(j, p, "", true, "explore_arm", js)
				armWall += arm.wall
				if pass == 0 {
					armQueries += float64(arm.res.Stats.Solver.Queries)
				}
				e.validateArm(j, arm)
			}
			e.tr.end(js)

			// Times count each job's fastest pass; counters describe
			// one pass.
			wallSum += r.wall
			if pass == 0 || r.wall < bestWall[k] {
				bestWall[k] = r.wall
			}
			if pass == 0 || r.cpu < bestCPU[k] {
				bestCPU[k] = r.cpu
			}
			passCPU[j.Regime.Name] += r.cpu
			passCPU[j.Regime.Name+"_sys"] += r.sys
			st := r.res.Stats
			if pass == 0 {
				rt = rt.add(r.rt)
				e.addStats(&st, r.metrics)
			}
			e.tr.record(jobRecord{Job: j.name(), Pass: pass, WallS: r.wall, CPUS: r.cpu,
				Stats: &st, Metrics: r.metrics})
			if e.validate(j, r) {
				pending = append(pending, pendingCorpus{j, dir, resultOutcome(j, e.workload, r.res)})
			}
			if plain.res != nil {
				plainWall += plain.wall
				if e.validate(j, plain) {
					pending = append(pending, pendingCorpus{j, twinDir(dir), resultOutcome(j, e.workload, plain.res)})
				}
			}
		}
		e.tr.end(ps)
		fmt.Fprintf(e.log, "pass %d: cpu (of which system) none %.3fs (%.3fs) ssm %.3fs (%.3fs) dsm %.3fs (%.3fs)\n",
			pass, passCPU["none"], passCPU["none_sys"], passCPU["ssm"], passCPU["ssm_sys"], passCPU["dsm"], passCPU["dsm_sys"])
	}
	if compileS, err = compiles.finish(); err != nil {
		return err
	}
	e.vals["setup_s"] = compileS
	e.vals["lang.compile_ms"] = compileS * 1000

	// Outputs are checked after the timed region: digests and replay.
	cs := e.tr.begin("checks", "harness", root, "")
	var replayS, digestS float64
	for _, pc := range pending {
		rs, ds := e.checkCorpus(pc, progs[pc.job.Tool.Name], cs)
		replayS += rs
		digestS += ds
		os.RemoveAll(pc.dir)
	}
	e.tr.end(cs)

	for k, j := range jobs {
		e.vals["wall_s"] += bestWall[k]
		e.vals["cpu_s"] += bestCPU[k]
		e.vals["core."+j.Regime.Name+"_s"] += bestWall[k]
		e.vals[regimeCPUMetric[j.Regime.Name]] += bestCPU[k]
	}
	e.vals["go.peak_rss_mb"] = peakRSSMB("self")
	e.vals["corpus.replay_s"] = replayS
	e.vals["corpus.digest_ms"] = digestS * 1000
	e.vals["corpus.testgen_s"] = 0
	e.vals["corpus.testgen_queries"] = 0
	if e.tr != nil {
		e.vals["corpus.testgen_s"] = wallSum - armWall
		e.vals["corpus.testgen_queries"] = e.vals["solver.queries"] - armQueries
	}
	e.vals["obs.trace_overhead"] = 0
	if plainWall > 0 {
		e.vals["obs.trace_overhead"] = wallSum/plainWall - 1
	}
	e.vals["go.alloc_mb"] = rt.allocBytes / (1 << 20)
	e.vals["go.gc_cycles"] = rt.gcCycles
	e.vals["go.gc_cpu_s"] = rt.gcCPU
	return nil
}

// twinDir is the corpus directory of a job's untraced twin.
func twinDir(dir string) string {
	if dir == "" {
		return ""
	}
	return dir + "-plain"
}

// jobRecord is one in-process job's counters in the trace.
type jobRecord struct {
	Job     string            `json:"job"`
	Pass    int               `json:"pass"`
	WallS   float64           `json:"wall_s"`
	CPUS    float64           `json:"cpu_s"`
	Stats   *symx.Stats       `json:"stats"`
	Metrics *symx.MetricsSnap `json:"metrics,omitempty"`
}

// resultOutcome extracts the regime-invariant outputs of a run.
func resultOutcome(j job, workload string, res *symx.Result) outcome {
	return outcome{
		Sizes:    sizes(j.Tool, workload),
		Paths:    map[string]string{j.Regime.Name: res.Stats.PathsMult.String()},
		Coverage: res.Stats.Coverage(),
		Errors:   res.Stats.ErrorsFound,
	}
}

// validate checks that a run finished cleanly; its corpus is compared with
// the pins later, by checkCorpus. It reports whether the run is still
// passing.
func (e *env) validate(j job, r runOut) bool {
	e.attempted++
	if why := runProblem(r.res, true); why != "" {
		e.fail(j, why)
		return false
	}
	return true
}

// validateArm checks a paired explore-only run: it emits no corpus, but
// its census, coverage and errors must match the corpus run's pins.
func (e *env) validateArm(j job, r runOut) {
	e.attempted++
	if why := runProblem(r.res, false); why != "" {
		e.fail(j, "explore-only arm: "+why)
		return
	}
	got := resultOutcome(j, e.workload, r.res)
	if want, ok := e.pins.expect(e.workload, j.Tool.Name); ok {
		got.Tests, got.Digest, got.DirDigest = want.Tests, want.Digest, want.DirDigest
	}
	e.compare(j, got)
}

// checkCorpus digests and replays one emitted corpus and compares it with
// the pinned outcome. It returns the seconds spent replaying and digesting.
func (e *env) checkCorpus(pc pendingCorpus, p *symx.Program, parent int) (replayS, digestS float64) {
	start := time.Now()
	id := e.tr.begin("corpus.DirDigest", "corpus", parent, pc.job.name())
	dirDigest, err := corpus.DirDigest(pc.dir)
	e.tr.end(id)
	digestS = time.Since(start).Seconds()
	if err != nil {
		e.fail(pc.job, "digest: "+err.Error())
		return 0, digestS
	}
	tests, testDigest, err := testsDigest(pc.dir)
	if err != nil {
		e.fail(pc.job, "digest: "+err.Error())
		return 0, digestS
	}
	start = time.Now()
	id = e.tr.begin("corpus.Replay", "corpus", parent, pc.job.name())
	rep, err := corpus.Replay(pc.dir, p.Internal())
	e.tr.end(id)
	replayS = time.Since(start).Seconds()
	switch {
	case err != nil:
		e.fail(pc.job, "replay: "+err.Error())
		return replayS, digestS
	case !rep.OK():
		e.fail(pc.job, "replay: "+rep.Summary())
		return replayS, digestS
	}
	got := pc.got
	got.Tests = tests
	got.Digest = testDigest
	got.DirDigest = map[string]string{pc.job.Regime.Name: dirDigest}
	e.compare(pc.job, got)
	return replayS, digestS
}

// testsDigest hashes a corpus directory's test files — every regular file
// but the manifest, which names the producing regime — the way
// corpus.DirDigest hashes the whole directory. It also counts them.
func testsDigest(dir string) (int, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", err
	}
	names := make([]string, 0, len(entries))
	for _, en := range entries {
		if en.Type().IsRegular() && en.Name() != corpus.ManifestName {
			names = append(names, en.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return len(names), hex.EncodeToString(h.Sum(nil)), nil
}
