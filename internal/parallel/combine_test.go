package parallel

// White-box regression tests for Combine's counter attribution: rule hits
// live on the expression builder, so a pool whose workers share one builder
// must report the builder's counters exactly once — not once per worker, and
// not whatever stale snapshot a worker embedded; solver counters live on
// each worker's solver and are summed.

import (
	"reflect"
	"testing"

	"symmerge/internal/core"
	"symmerge/internal/expr"
)

func TestCombineRulesSharedBuilder(t *testing.T) {
	b := expr.NewBuilder()
	// Fire at least one rewrite rule so the builder has non-empty counters.
	x := b.Var("x", 32)
	b.Add(x, b.Const(0, 32))
	want := b.RuleHits()

	// Two worker results that (wrongly, as pre-fix engines did) embed
	// builder-global snapshots: summing or keeping them would misattribute.
	stale := []expr.RuleHit{{Name: "bogus", Hits: 999}}
	mk := func() *core.Result {
		r := &core.Result{}
		r.Stats.Rules = stale
		return r
	}
	res := Combine([]*core.Result{mk(), mk()}, true, core.Config{Builder: b})
	if !reflect.DeepEqual(res.Stats.Rules, want) {
		t.Fatalf("shared builder: Rules = %v, want the builder's own counters %v", res.Stats.Rules, want)
	}
}

func TestCombineRulesPrivateBuilders(t *testing.T) {
	// Without a shared builder, Combine keeps the largest snapshot (the
	// counters are monotone, so the largest is the newest) rather than
	// summing — summing would multiply shared counters by the worker count.
	older := &core.Result{}
	older.Stats.Rules = []expr.RuleHit{{Name: "r", Hits: 10}}
	newer := &core.Result{}
	newer.Stats.Rules = []expr.RuleHit{{Name: "r", Hits: 25}}
	res := Combine([]*core.Result{older, newer}, true, core.Config{})
	if len(res.Stats.Rules) != 1 || res.Stats.Rules[0].Hits != 25 {
		t.Fatalf("private builders: Rules = %v, want the newest snapshot (hits 25)", res.Stats.Rules)
	}
}

func TestCombineSumsSolverStats(t *testing.T) {
	// Every solver counter is per-worker, so Combine must sum each one.
	// Reflection fills every field with a distinct value, so a counter
	// added to solver.Stats but not to Combine fails here.
	mk := func(base int64) *core.Result {
		r := &core.Result{}
		v := reflect.ValueOf(&r.Stats.Solver).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInt() {
				f.SetInt(base + int64(i)) // SATTime
			} else {
				f.SetUint(uint64(base + int64(i)))
			}
		}
		return r
	}
	res := Combine([]*core.Result{mk(100), mk(1000)}, true, core.Config{})
	v := reflect.ValueOf(res.Stats.Solver)
	for i := 0; i < v.NumField(); i++ {
		f, want := v.Field(i), 1100+2*int64(i)
		got := int64(0)
		if f.CanInt() {
			got = f.Int()
		} else {
			got = int64(f.Uint())
		}
		if got != want {
			t.Errorf("Solver.%s = %d, want the workers' sum %d", v.Type().Field(i).Name, got, want)
		}
	}
}
