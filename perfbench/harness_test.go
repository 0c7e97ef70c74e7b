package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"symmerge/internal/coreutils"
	"symmerge/internal/daemon"
	"symmerge/symx"
)

// sliceTools is the small slice the determinism tests run: argv-only,
// stdin-reading and multi-argument tools that each finish in milliseconds.
var sliceTools = []string{"echo", "wc", "sum", "basename"}

// selectTools returns the named tools.
func selectTools(names []string) ([]*coreutils.Tool, error) {
	out := make([]*coreutils.Tool, 0, len(names))
	for _, n := range names {
		t, err := coreutils.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// symxdPath is built once by TestMain for the service tests.
var symxdPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	symxdPath = filepath.Join(dir, "symxd")
	cmd := exec.Command("go", "build", "-o", symxdPath, "symmerge/cmd/symxd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building symxd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testPins(t *testing.T) *pins {
	t.Helper()
	p, err := loadPins("pins.json")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSlice runs one pass of a workload over the slice tools.
func runSlice(t *testing.T, workload string, seed int64, p *pins, traced bool) *env {
	t.Helper()
	tools, err := selectTools(sliceTools)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{workload: workload, seed: seed, passes: 1, tools: tools, pins: p,
		symxd: symxdPath, tr: newTracer(traced), log: io.Discard}
	if _, err := e.run(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	return e
}

// workCounts are the counters a fixed workload must reproduce exactly.
var workCounts = []string{
	"core.steps", "core.forks", "core.merges", "solver.queries", "solver.sat_calls",
	"corpus.tests", "corpus.exact_paths", "summary.hits",
}

// TestSliceDeterministic runs a slice of every workload three times: the
// same seed twice must reproduce the work counts exactly, so neither a time
// budget nor nondeterminism has slipped into the fixed work, and a second
// seed must pass the same pins. In-process jobs share nothing, so their
// counts do not depend on the order either; service jobs share the
// daemon's domain, so theirs do.
func TestSliceDeterministic(t *testing.T) {
	p := testPins(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, b, c := runSlice(t, w, 1, p, true), runSlice(t, w, 1, p, true), runSlice(t, w, 2, p, true)
			for _, e := range []*env{a, b, c} {
				if e.failed != 0 || e.attempted == 0 {
					t.Fatalf("seed %d: %d of %d jobs failed: %v", e.seed, e.failed, e.attempted, e.problems)
				}
			}
			others := []*env{b}
			if w != wService {
				others = append(others, c)
			}
			for _, o := range others {
				for _, k := range workCounts {
					if a.vals[k] != o.vals[k] {
						t.Errorf("%s: %v under seed 1, %v under seed %d", k, a.vals[k], o.vals[k], o.seed)
					}
				}
			}
			if a.vals["core.steps"] == 0 {
				t.Error("no steps counted")
			}
		})
	}
}

// TestOutcomesAgreeAcrossRegimes re-derives the slice's pins from the
// current tree: every regime (and both service passes) must agree on each
// tool's outcome, and the result must equal the committed pins.
func TestOutcomesAgreeAcrossRegimes(t *testing.T) {
	p := testPins(t)
	tools, _ := selectTools(sliceTools)
	for _, w := range workloads {
		e := &env{workload: w, seed: 3, passes: 1, tools: tools, symxd: symxdPath,
			observed: make(map[string]outcome), log: io.Discard}
		if _, err := e.run(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		if e.failed != 0 {
			t.Fatalf("%s: regimes disagree: %v", w, e.problems)
		}
		for name, got := range e.observed {
			if want, _ := p.expect(w, name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: observed %+v, pinned %+v", w, name, got, want)
			}
		}
	}
}

// TestDigestMismatchFails corrupts one tool's pinned digests: all of its
// jobs must fail, and stay counted as attempted.
func TestDigestMismatchFails(t *testing.T) {
	for _, w := range []string{wCorpus, wService} {
		p := testPins(t)
		o := p.Workloads[w]["wc"]
		o.Digest = "0000"
		p.Workloads[w]["wc"] = o
		e := runSlice(t, w, 1, p, false)
		want := len(workloadRegimes(w))
		if w == wService {
			want *= 2 // cold and warm pass
		}
		if e.failed != want {
			t.Errorf("%s: %d jobs failed, want %d: %v", w, e.failed, want, e.problems)
		}
		if ratio := e.vals["pass_ratio"]; ratio != float64(e.attempted-want)/float64(e.attempted) {
			t.Errorf("%s: pass_ratio %v with %d of %d failed", w, ratio, want, e.attempted)
		}
	}
}

// TestBudgetHitFails: a run stopped by a budget, and a daemon job that
// timed out, are failures even when their partial outputs look plausible.
func TestBudgetHitFails(t *testing.T) {
	tools, _ := selectTools([]string{"wc"})
	e := &env{workload: wCorpus, tools: tools, pins: testPins(t), log: io.Discard}
	j := job{tools[0], regimes[2]}
	prog, err := symx.Compile(j.Tool.Source)
	if err != nil {
		t.Fatal(err)
	}
	s := sizes(j.Tool, wCorpus)
	res := symx.Run(prog, symx.Config{Merge: j.Regime.Merge, UseQCE: j.Regime.QCE,
		NArgs: s[0], ArgLen: s[1], StdinLen: s[2], MaxSteps: 10})
	if e.validate(j, runOut{res: res}) || e.failed != 1 {
		t.Fatalf("budget-stopped run passed (failed=%d)", e.failed)
	}

	e.workload = wService
	good := e.pins.Workloads[wService]["wc"]
	e.check(j, reply{res: &daemon.JobResult{Completed: false, Interrupted: "context", TimedOut: true,
		Paths: good.Paths[j.Regime.Name], Coverage: good.Coverage, ErrorsFound: good.Errors,
		Tests: good.Tests, CorpusDigest: good.Digest}, tests: good.Tests})
	e.check(j, reply{err: "connection reset"})
	if e.failed != 3 || e.attempted != 3 {
		t.Fatalf("timed-out and broken daemon jobs: %d of %d failed, want 3 of 3: %v", e.failed, e.attempted, e.problems)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue the harness prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, harness runs %v", names, workloads)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the harness %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] %+v, harness %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] %+v, harness %+v", i, m, d)
		}
	}
}
