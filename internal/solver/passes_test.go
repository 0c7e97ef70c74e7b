package solver

// Tests for the preprocessing-pass pipeline (passes.go) and the n-ary
// clause-group bit-blasting: pipeline configurations must agree on every
// verdict, models must satisfy the original (pre-pipeline) constraints,
// and the pipeline must shrink the emitted CNF on redundancy-heavy queries.

import (
	"math/rand"
	"testing"

	"symmerge/internal/expr"
)

func TestParsePasses(t *testing.T) {
	cases := []struct {
		spec  string
		names []string
		err   bool
	}{
		{"", []string{"simplify", "subst-eq", "slice"}, false},
		{"on", []string{"simplify", "subst-eq", "slice"}, false},
		{"off", []string{}, false},
		{"none", []string{}, false},
		{"simplify", []string{"simplify"}, false},
		{"slice,simplify", []string{"slice", "simplify"}, false},
		{" subst-eq , slice ", []string{"subst-eq", "slice"}, false},
		{"bogus", nil, true},
		{"simplify,bogus", nil, true},
	}
	for _, c := range cases {
		got, err := ParsePasses(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParsePasses(%q): expected error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePasses(%q): %v", c.spec, err)
			continue
		}
		if len(got) != len(c.names) {
			t.Errorf("ParsePasses(%q) = %d passes, want %v", c.spec, len(got), c.names)
			continue
		}
		for i, p := range got {
			if p.Name != c.names[i] {
				t.Errorf("ParsePasses(%q)[%d] = %q, want %q", c.spec, i, p.Name, c.names[i])
			}
		}
	}
}

// TestPipelineConfigsAgree fuzzes random conjunction sets through four
// pipeline configurations; all must return the same verdict and
// constraint-satisfying models.
func TestPipelineConfigsAgree(t *testing.T) {
	b := expr.NewBuilder()
	g := &exprGen{rng: rand.New(rand.NewSource(3)), b: b,
		x: b.Var("x", 4), y: b.Var("y", 4)}
	mk := func(spec string) *Solver {
		passes, err := ParsePasses(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Passes: passes})
		s.AttachBuilder(b)
		return s
	}
	solvers := map[string]*Solver{
		"off":      mk("off"),
		"simplify": mk("simplify"),
		"full":     mk("on"),
		"sliced":   mk("slice"),
	}
	for iter := 0; iter < 200; iter++ {
		n := 1 + g.rng.Intn(4)
		cs := make([]*expr.Expr, n)
		for i := range cs {
			cs[i] = g.cond(2)
		}
		// Brute-force ground truth.
		want := false
		for xv := uint64(0); xv < 16 && !want; xv++ {
			for yv := uint64(0); yv < 16 && !want; yv++ {
				env := expr.Env{g.x: xv, g.y: yv}
				ok := true
				for _, c := range cs {
					ok = ok && expr.EvalBool(c, env)
				}
				want = ok
			}
		}
		for name, s := range solvers {
			got, m, err := s.CheckSat(cs)
			if err != nil {
				t.Fatalf("iter %d (%s): %v", iter, name, err)
			}
			if got != want {
				t.Fatalf("iter %d (%s): verdict %v, brute force says %v for %v",
					iter, name, got, want, cs)
			}
			if got && !s.satisfies(m, cs) {
				t.Fatalf("iter %d (%s): model %v does not satisfy original constraints %v",
					iter, name, m, cs)
			}
		}
	}
}

// TestPipelineShrinksEncoding builds a redundancy-heavy query — duplicated
// conjuncts, absorbed disjunctions, re-conjoined shared guards — and
// checks the pipeline emits strictly fewer SAT variables and clauses than
// the off baseline while agreeing on the verdict.
func TestPipelineShrinksEncoding(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	z := b.Var("z", 8)
	p := b.Ult(x, b.Const(100, 8))
	q := b.Ult(y, x)
	r := b.Eq(b.BAnd(z, b.Const(3, 8)), b.Const(1, 8))
	cs := []*expr.Expr{
		p,
		b.Or(p, q),                     // absorbed by p
		p,                              // duplicate
		b.Or(b.And(p, q), b.And(p, r)), // factors to p ∧ (q∨r); p already present
		b.Ult(b.Const(0, 8), y),
	}
	run := func(spec string) (bool, uint64) {
		passes, err := ParsePasses(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Passes: passes})
		s.AttachBuilder(b)
		res, m, err := s.CheckSat(cs)
		if err != nil {
			t.Fatal(err)
		}
		if res && !s.satisfies(m, cs) {
			t.Fatalf("%s: model does not satisfy constraints", spec)
		}
		return res, s.Stats.SATVars + s.Stats.SATClauses
	}
	resOff, encOff := run("off")
	resOn, encOn := run("on")
	if resOff != resOn {
		t.Fatalf("verdicts diverge: off=%v on=%v", resOff, resOn)
	}
	if encOn >= encOff {
		t.Fatalf("pipeline did not shrink the encoding: off=%d on=%d", encOff, encOn)
	}
}

// TestNaryBlastAgainstBruteForce checks the one-clause-group encoding of
// wide n-ary connectives against exhaustive enumeration.
func TestNaryBlastAgainstBruteForce(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)
	s := New(Options{})
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(5)
		parts := make([]*expr.Expr, n)
		for i := range parts {
			l := b.Const(uint64(rng.Intn(16)), 4)
			switch rng.Intn(3) {
			case 0:
				parts[i] = b.Ult(x, b.Add(y, l))
			case 1:
				parts[i] = b.Eq(b.BXor(x, y), l)
			default:
				parts[i] = b.Slt(b.Sub(y, l), x)
			}
		}
		var conds []*expr.Expr
		if iter%2 == 0 {
			conds = []*expr.Expr{b.AndN(parts)}
		} else {
			conds = []*expr.Expr{b.Not(b.OrN(parts))}
		}
		want := false
		for xv := uint64(0); xv < 16 && !want; xv++ {
			for yv := uint64(0); yv < 16 && !want; yv++ {
				want = expr.EvalBool(conds[0], expr.Env{x: xv, y: yv})
			}
		}
		got, m, err := s.CheckSat(conds)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: n-ary blast verdict %v, brute force %v: %s", iter, got, want, conds[0])
		}
		if got && !s.satisfies(m, conds) {
			t.Fatalf("iter %d: model fails the n-ary condition", iter)
		}
	}
}

// TestPreprocNodeCounts checks the pipeline's node-trajectory stats move in
// the right direction on a shrinkable query.
func TestPreprocNodeCounts(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 8)
	p := b.Ult(x, b.Const(50, 8))
	q := b.Ult(b.Const(5, 8), x)
	s := New(DefaultOptions())
	s.AttachBuilder(b)
	if _, _, err := s.CheckSat([]*expr.Expr{p, b.Or(p, q), p}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats
	if st.PreprocQueries == 0 {
		t.Fatal("pipeline did not run")
	}
	if st.PreprocNodesOut >= st.PreprocNodesIn {
		t.Fatalf("node count did not shrink: in=%d out=%d", st.PreprocNodesIn, st.PreprocNodesOut)
	}
}
