// Command perfbench is symmerge's end-to-end benchmark: fixed, exhaustive
// explorations of the 47 COREUTILS models under none, SSM+QCE and DSM+QCE,
// in two workloads (corpus, service). It checks every job's outputs
// against the pinned outcomes in pins.json and prints the result
// as one JSON line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a traced run. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.py builds and invokes it):
//
//	perfbench -workload corpus|service -seed N -seconds S -trace 0|1
//	          [-symxd path] [-pins perfbench/pins.json] [-out dir]
//	perfbench -pin            regenerate pins.json from the current tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"symmerge/internal/coreutils"
	"symmerge/symx"
)

// passSeconds is the nominal length of one repeat pass over the corpus
// jobs (none and DSM+QCE; see repeats) on a 2-vCPU host: an untraced
// corpus run makes floor(seconds / passSeconds) passes, at least one, so the work of
// a run is fixed by -seconds, never by the host's speed. Each job's time is
// its fastest pass. A traced run makes one pass: it already runs every job
// three times (traced, untraced twin, explore-only arm), and its counters
// describe one pass.
const passSeconds = 20

// env is the state of one benchmark run.
type env struct {
	workload string
	seed     int64
	passes   int
	tools    []*coreutils.Tool
	pins     *pins
	// observed, when non-nil, collects outcomes to pin instead of
	// checking them against pins.
	observed map[string]outcome
	scratch  string
	symxd    string
	tr       *tracer
	log      io.Writer

	vals      map[string]float64
	attempted int
	failed    int
	problems  []string
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "corpus or service")
	seed := flag.Int64("seed", 1, "workload seed: orders the tools and regimes")
	seconds := flag.Float64("seconds", 25, "measured time per run; sets the number of passes")
	trace := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	symxd := flag.String("symxd", "", "symxd binary (service workload)")
	pinsPath := flag.String("pins", "perfbench/pins.json", "pinned outcomes file")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch files and traces")
	pin := flag.Bool("pin", false, "regenerate the pinned outcomes file from the current tree")
	flag.Parse()

	tools := coreutils.All()
	if *pin {
		if err := pinAll(tools, *symxd, *out, *pinsPath); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	ps, err := loadPins(*pinsPath)
	if err != nil {
		fatal(err)
	}
	e := &env{workload: *workload, seed: *seed, tools: tools, pins: ps, symxd: *symxd,
		tr: newTracer(*trace == 1), log: os.Stderr}
	e.passes = 1
	if *workload == wCorpus && *trace == 0 {
		e.passes = max(1, int(*seconds/passSeconds))
	}
	res, err := e.run(*out)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes the workload once and assembles the result line.
func (e *env) run(out string) (*result, error) {
	if !slices.Contains(workloads, e.workload) {
		return nil, fmt.Errorf("unknown workload %q (corpus, service)", e.workload)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e.scratch = scratch
	e.vals = make(map[string]float64)

	host := startWitness()
	if e.workload == wService {
		err = e.service()
	} else {
		err = e.corpusRun()
	}
	if err != nil {
		return nil, err
	}
	host.finish()
	e.vals["host.calib_ms"] = host.calibAvg
	e.vals["host.steal_pct"] = host.stealPct
	e.vals["pass_ratio"] = float64(e.attempted-e.failed) / float64(max(e.attempted, 1))
	e.derive()

	for _, p := range e.problems {
		fmt.Fprintln(e.log, "FAIL", p)
	}
	fmt.Fprintf(e.log, "%s seed %d: %d passes, %d jobs, %d failed; wall %.3fs cpu %.3fs setup %.4fs; calib %.1fms steal %.2f%%\n",
		e.workload, e.seed, e.passes, e.attempted, e.failed, e.vals["wall_s"], e.vals["cpu_s"],
		e.vals["setup_s"], e.vals["host.calib_ms"], e.vals["host.steal_pct"])

	defs := endToEnd
	if e.tr != nil {
		defs = perLayer
	}
	ms, err := selectMetrics(defs, e.vals)
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
		if err := e.tr.write(path, e.workload, e.seed, ms, e.log); err != nil {
			return nil, err
		}
	}
	return &result{Correct: e.failed == 0 && e.attempted > 0, Attempted: e.attempted,
		Failed: e.failed, Metrics: ms}, nil
}

// fail records one failed job. Each attempted job fails at most once.
func (e *env) fail(j job, why string) {
	e.failed++
	e.problems = append(e.problems, j.name()+": "+why)
}

// compare checks an observed outcome against the pinned one (or, while
// pinning, against the other regimes' outcomes) and fails the job on a
// difference. It reports whether the job passed.
func (e *env) compare(j job, got outcome) bool {
	var want outcome
	if e.observed != nil {
		prev, seen := e.observed[j.Tool.Name]
		if !seen {
			e.observed[j.Tool.Name] = got
			return true
		}
		prev.merge(got)
		e.observed[j.Tool.Name] = prev
		want = prev
	} else {
		var ok bool
		if want, ok = e.pins.expect(e.workload, j.Tool.Name); !ok {
			e.fail(j, "no pinned outcome")
			return false
		}
	}
	if d := want.diff(got, j.Regime.Name); d != "" {
		e.fail(j, d)
		return false
	}
	return true
}

// addStats accumulates one traced run's engine counters.
func (e *env) addStats(st *symx.Stats, m *symx.MetricsSnap) {
	add := func(name string, v float64) { e.vals[name] += v }
	sv := &st.Solver
	add("solver.queries", float64(sv.Queries))
	add("solver.cache_hits", float64(sv.CacheHits))
	add("solver.model_reuse_hits", float64(sv.ModelReuseHits))
	add("solver.sat_calls", float64(sv.SATCalls))
	add("solver.sat_s", sv.SATTime.Seconds())
	add("solver.session_queries", float64(sv.SessionQueries))
	add("solver.session_blast_reuse", float64(sv.SessionBlastReuse))
	add("solver.session_bypass", float64(sv.SessionBypass))
	add("solver.session_rebases", float64(sv.SessionRebases))
	add("solver.indep_sliced", float64(sv.IndepSliced))
	add("solver.sat_vars", float64(sv.SATVars))
	add("solver.sat_clauses", float64(sv.SATClauses))
	add("solver.stable_hits", float64(sv.StableHits))
	add("solver.stable_group_hits", float64(sv.StableGroupHits))
	add("corpus.tests", float64(st.TestsEmitted-st.TestsDeduped))
	add("corpus.deduped", float64(st.TestsDeduped))
	add("corpus.testgen_failures", float64(st.TestGenFailures))
	add("corpus.exact_paths", float64(st.ExactPaths))
	add("core.run_s", st.ElapsedSeconds)
	add("core.steps", float64(st.Steps))
	add("core.forks", float64(st.Forks))
	add("core.merge_attempts", float64(st.MergeAttempts))
	add("core.merges", float64(st.Merges))
	add("core.ff_selected", float64(st.FFSelected))
	add("core.ff_merged", float64(st.FFMerged))
	e.vals["core.max_worklist"] = max(e.vals["core.max_worklist"], float64(st.MaxWorklist))
	add("analysis.pruned_static", float64(st.PrunedStatic))
	add("summary.hits", float64(st.SummaryHits))
	if m != nil {
		add("solver.query_ms.session", float64(m.QueryLatSession.SumUS)/1000)
		add("solver.query_ms.oneshot", float64(m.QueryLatOneShot.SumUS)/1000)
		add("solver.query_ms.cached", float64(m.QueryLatCached.SumUS)/1000)
		add("solver.query_ms.summary", float64(m.QueryLatSummary.SumUS)/1000)
		add("qce.merge_gate_ms", float64(m.MergeGate.SumUS)/1000)
		add("qce.merge_rejects", float64(m.MergeRejects))
	}
}

// derive fills the ratios and the metrics no layer of this workload
// touched.
func (e *env) derive() {
	for _, d := range perLayer {
		if _, ok := e.vals[d.Name]; !ok {
			e.vals[d.Name] = 0
		}
	}
	if q := e.vals["solver.queries"]; q > 0 {
		e.vals["solver.hit_ratio"] = (e.vals["solver.cache_hits"] + e.vals["solver.model_reuse_hits"]) / q
	}
	if r := e.vals["core.run_s"]; r > 0 {
		e.vals["solver.sat_share"] = e.vals["solver.sat_s"] / r
	}
}
