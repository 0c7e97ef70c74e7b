package solver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"symmerge/internal/expr"
)

// memBackend is a map-backed StableBackend for tests.
type memBackend struct {
	mu      sync.Mutex
	entries map[expr.FP]memEntry
	inserts int
}

type memEntry struct {
	sat   bool
	model []StableAssign
}

func newMemBackend() *memBackend { return &memBackend{entries: map[expr.FP]memEntry{}} }

func (b *memBackend) LookupCex(fp expr.FP) (bool, []StableAssign, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	return e.sat, e.model, ok
}

func (b *memBackend) InsertCex(fp expr.FP, sat bool, model []StableAssign) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inserts++
	b.entries[fp] = memEntry{sat: sat, model: model}
}

// domainSolver builds a (builder, cache-with-stable-backend, solver) triple
// the way symx.Domain wires them.
func domainSolver(back StableBackend) (*expr.Builder, *Solver) {
	b := expr.NewBuilder()
	c := NewSharedCache()
	c.AttachStable(back, &expr.Fingerprinter{})
	opts := DefaultOptions()
	opts.SharedCache = c
	s := New(opts)
	s.AttachBuilder(b)
	return b, s
}

// queries issues a fixed mixed workload (sat with model, unsat, grouped) and
// returns the verdicts observed.
func queries(t *testing.T, b *expr.Builder, s *Solver) []bool {
	t.Helper()
	x, y := b.Var("x", 8), b.Var("y", 8)
	sets := [][]*expr.Expr{
		{b.Eq(b.Add(x, b.Const(1, 8)), b.Const(5, 8))},
		{b.Ult(x, b.Const(3, 8)), b.Ugt(x, b.Const(5, 8))},
		// Two independent groups: x-only and y-only conjuncts.
		{b.Ugt(x, b.Const(200, 8)), b.Eq(b.Mul(y, b.Const(3, 8)), b.Const(33, 8))},
	}
	var out []bool
	for _, set := range sets {
		ok, m, err := s.CheckSat(set)
		if err != nil {
			t.Fatalf("CheckSat: %v", err)
		}
		if ok && !s.satisfies(m, set) {
			t.Fatalf("returned model does not satisfy the constraints: %v", m)
		}
		out = append(out, ok)
	}
	return out
}

func TestStableBackendWarmHit(t *testing.T) {
	back := newMemBackend()

	bCold, sCold := domainSolver(back)
	cold := queries(t, bCold, sCold)
	if sCold.Stats.StableHits != 0 {
		t.Fatalf("cold run claims %d stable hits", sCold.Stats.StableHits)
	}
	if back.inserts == 0 {
		t.Fatal("cold run persisted nothing")
	}

	// Fresh builder + fresh ID cache, same backend: the warm "process".
	bWarm, sWarm := domainSolver(back)
	warm := queries(t, bWarm, sWarm)
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("query %d: cold verdict %v, warm verdict %v", i, cold[i], warm[i])
		}
	}
	if sWarm.Stats.StableHits == 0 {
		t.Fatalf("warm run hit the stable layer 0 times (SAT calls: %d)", sWarm.Stats.SATCalls)
	}
	if sWarm.Stats.SATCalls >= sCold.Stats.SATCalls {
		t.Errorf("warm run did not save SAT calls: cold %d, warm %d",
			sCold.Stats.SATCalls, sWarm.Stats.SATCalls)
	}
}

func TestStableGroupHitAcrossDifferentQueries(t *testing.T) {
	back := newMemBackend()

	b1, s1 := domainSolver(back)
	x, y := b1.Var("x", 8), b1.Var("y", 8)
	// Solve {P(x), Q(y)}: group verdicts for P and Q persist individually.
	if ok, _, err := s1.CheckSat([]*expr.Expr{
		b1.Eq(b1.Add(x, b1.Const(1, 8)), b1.Const(5, 8)),
		b1.Eq(b1.Mul(y, b1.Const(3, 8)), b1.Const(33, 8)),
	}); err != nil || !ok {
		t.Fatalf("seed query: ok=%v err=%v", ok, err)
	}

	// A different whole query that shares group P(x) with a new y conjunct:
	// the whole-query fingerprint misses, the P group hits.
	b2, s2 := domainSolver(back)
	x2, y2 := b2.Var("x", 8), b2.Var("y", 8)
	if ok, _, err := s2.CheckSat([]*expr.Expr{
		b2.Eq(b2.Add(x2, b2.Const(1, 8)), b2.Const(5, 8)),
		b2.Ult(y2, b2.Const(7, 8)),
	}); err != nil || !ok {
		t.Fatalf("near-repeat query: ok=%v err=%v", ok, err)
	}
	if s2.Stats.StableHits != 0 {
		t.Errorf("whole-query fingerprint unexpectedly hit (%d)", s2.Stats.StableHits)
	}
	if s2.Stats.StableGroupHits == 0 {
		t.Error("shared independence group did not hit the stable layer")
	}
}

func TestStableNeverPersistsBudgetVerdicts(t *testing.T) {
	back := newMemBackend()
	b := expr.NewBuilder()
	c := NewSharedCache()
	c.AttachStable(back, &expr.Fingerprinter{})
	opts := DefaultOptions()
	opts.SharedCache = c
	s := New(opts)
	s.AttachBuilder(b)
	s.SetDeadline(time.Now().Add(-time.Second)) // every SAT call times out

	// Pigeonhole (6 pigeons, 5 holes): unsat, and hard enough that CDCL
	// reaches its first restart — where the expired deadline is checked —
	// before settling. The whole set is one independence group (the
	// disequalities chain every variable together), so the error
	// propagates out of solveQuery rather than being a per-group miss.
	var vars, cs []*expr.Expr
	for i := 0; i <= 5; i++ {
		vars = append(vars, b.Var(fmt.Sprintf("p%d", i), 8))
		cs = append(cs, b.Ult(vars[i], b.Const(5, 8)))
	}
	for i := range vars {
		for j := i + 1; j < len(vars); j++ {
			cs = append(cs, b.Not(b.Eq(vars[i], vars[j])))
		}
	}
	_, _, err := s.CheckSat(cs)
	if err == nil {
		t.Fatal("expired deadline did not produce a budget error")
	}
	if back.inserts != 0 {
		t.Fatalf("budget-limited verdict was persisted (%d inserts)", back.inserts)
	}
}
