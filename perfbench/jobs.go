package main

// The fixed work: every COREUTILS model under every merging regime at
// pinned input sizes, in an order drawn from the workload seed, and the
// pinned outcome each job must reproduce.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"

	"symmerge/internal/coreutils"
	"symmerge/symx"
)

// regime is one merging configuration of the paper's comparison (§5).
type regime struct {
	Name  string
	Merge symx.MergeMode
	QCE   bool
}

var regimes = []regime{
	{"none", symx.MergeNone, false},
	{"ssm", symx.MergeSSM, true},
	{"dsm", symx.MergeDSM, true},
}

// regimeCPUMetric names the metric that sums the CPU time of a regime's
// jobs; each regime's wall time is the per-layer "core.<regime>_s". CPU
// time leaves out what the host steals, which moved wall times by up to a
// quarter between identical runs. SSM+QCE's is per-layer: the service runs
// no SSM jobs, and every end-to-end metric must be measured on every
// workload.
var regimeCPUMetric = map[string]string{"none": "none_cpu_s", "ssm": "core.ssm_cpu_s", "dsm": "dsm_cpu_s"}

// workloadRegimes returns the regimes a workload runs. The service runs
// none and DSM+QCE only: with SSM and summaries on, cksum alone took 12.7 s
// of a 33 s cold-and-warm cycle, and its swings under host contention
// dominated every service metric.
func workloadRegimes(workload string) []regime {
	if workload == wService {
		return []regime{regimes[0], regimes[2]}
	}
	return regimes
}

// Workload names.
const (
	wCorpus  = "corpus"
	wService = "service"
)

var workloads = []string{wCorpus, wService}

// corpusStdinCap bounds symbolic stdin in the corpus workload. Full
// BaseConfig sizes take about 145 s with corpus emission, too long for one
// run; three bytes keep mean coverage at its BaseConfig level.
const corpusStdinCap = 3

// sizes returns the pinned symbolic input sizes of a tool in a workload:
// BaseConfig with stdin capped for corpus, and one step below BaseConfig
// for service.
func sizes(t *coreutils.Tool, workload string) [3]int {
	c := t.BaseConfig()
	s := [3]int{c.NArgs, c.ArgLen, c.StdinLen}
	switch workload {
	case wCorpus:
		s[2] = min(s[2], corpusStdinCap)
	case wService:
		s = stepDown(s)
	}
	return s
}

// stepDown shrinks the input by one step: one stdin byte for tools that
// read stdin, else one argument character, else one argument.
func stepDown(s [3]int) [3]int {
	switch {
	case s[2] > 1:
		s[2]--
	case s[1] > 1:
		s[1]--
	case s[0] > 1:
		s[0]--
	}
	return s
}

// job is one exploration: a tool under a regime.
type job struct {
	Tool   *coreutils.Tool
	Regime regime
}

func (j job) name() string { return j.Tool.Name + "/" + j.Regime.Name }

// schedule orders the jobs of one pass: the seed shuffles the tools and,
// for each tool, picks which regime runs first; the regimes of one tool
// run back to back, so host drift hits all three alike. The seed never
// changes input sizes.
func schedule(tools []*coreutils.Tool, regs []regime, seed int64) []job {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	order := append([]*coreutils.Tool(nil), tools...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	jobs := make([]job, 0, len(order)*len(regs))
	for _, t := range order {
		first := rng.IntN(len(regs))
		for k := range regs {
			jobs = append(jobs, job{t, regs[(first+k)%len(regs)]})
		}
	}
	return jobs
}

// outcome is what one tool's jobs must reproduce in one workload, in every
// regime, pass and seed.
type outcome struct {
	Sizes    [3]int  `json:"sizes"` // nargs, arglen, stdin
	Coverage float64 `json:"coverage"`
	Errors   int     `json:"errors"`
	// Tests is the canonical test count (corpus files or streamed tests).
	Tests int `json:"tests,omitempty"`
	// Digest is the corpus digest over the test files (corpus) or the
	// daemon's corpus_digest (service); both are regime-invariant.
	Digest string `json:"digest,omitempty"`
	// Paths is the multiplicity census per regime: a merged state counts
	// the paths it stands for by the regime's own accounting.
	Paths map[string]string `json:"paths"`
	// DirDigest is corpus.DirDigest of the whole directory per regime:
	// the manifest names the producing regime, so it differs across them.
	DirDigest map[string]string `json:"dir_digest,omitempty"`
}

// merge adds the regime-specific fields of o that p lacks.
func (p *outcome) merge(o outcome) {
	fill := func(dst *map[string]string, src map[string]string) {
		for r, v := range src {
			if *dst == nil {
				*dst = make(map[string]string)
			}
			if _, ok := (*dst)[r]; !ok {
				(*dst)[r] = v
			}
		}
	}
	fill(&p.Paths, o.Paths)
	fill(&p.DirDigest, o.DirDigest)
}

// pinsSchema versions pins.json.
const pinsSchema = "symmerge-perfbench-pins/v1"

// pins holds the pinned outcomes of every workload, by tool name.
type pins struct {
	Schema    string                        `json:"schema"`
	Workloads map[string]map[string]outcome `json:"workloads"`
}

func loadPins(path string) (*pins, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.Schema != pinsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, p.Schema, pinsSchema)
	}
	return &p, nil
}

func (p *pins) save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// expect returns the pinned outcome of a tool in a workload.
func (p *pins) expect(workload, tool string) (outcome, bool) {
	o, ok := p.Workloads[workload][tool]
	return o, ok
}

// diff compares an observed outcome with the pinned one and names the
// first field that differs ("" when they agree). Regime-specific fields
// are compared for the given regime only.
func (want outcome) diff(got outcome, reg string) string {
	switch {
	case got.Sizes != want.Sizes:
		return fmt.Sprintf("sizes %v, pinned %v", got.Sizes, want.Sizes)
	case got.Paths[reg] != want.Paths[reg]:
		return fmt.Sprintf("paths %s, pinned %s", got.Paths[reg], want.Paths[reg])
	case got.Coverage != want.Coverage:
		return fmt.Sprintf("coverage %v, pinned %v", got.Coverage, want.Coverage)
	case got.Errors != want.Errors:
		return fmt.Sprintf("errors %d, pinned %d", got.Errors, want.Errors)
	case got.Tests != want.Tests:
		return fmt.Sprintf("tests %d, pinned %d", got.Tests, want.Tests)
	case got.Digest != want.Digest:
		return fmt.Sprintf("digest %.12s, pinned %.12s", got.Digest, want.Digest)
	case got.DirDigest[reg] != want.DirDigest[reg]:
		return fmt.Sprintf("dir digest %.12s, pinned %.12s", got.DirDigest[reg], want.DirDigest[reg])
	}
	return ""
}
