package expr

// Micro-benchmarks for the hash-consed expression layer: construction with
// consing hits, constant folding, and evaluation — the per-instruction costs
// of the engine's hot loop.

import "testing"

func BenchmarkBuilderConsHit(b *testing.B) {
	bld := NewBuilder()
	x := bld.Var("x", 32)
	y := bld.Var("y", 32)
	first := bld.Add(bld.Mul(x, y), bld.Const(7, 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bld.Add(bld.Mul(x, y), bld.Const(7, 32)) != first {
			b.Fatal("hash consing missed")
		}
	}
}

func BenchmarkConstFold(b *testing.B) {
	bld := NewBuilder()
	for i := 0; i < b.N; i++ {
		// Varying constants defeat the cons cache, so every iteration
		// exercises the folding path itself.
		c := bld.Const(uint64(i)&0xffff, 32)
		v := bld.Mul(bld.Add(c, bld.Const(3, 32)), bld.Const(5, 32))
		if !v.IsConst() {
			b.Fatal("constant expression did not fold")
		}
	}
}

// evalSink keeps the compiler from discarding benchmarked evaluations.
var evalSink uint64

func BenchmarkEvalDeepTree(b *testing.B) {
	bld := NewBuilder()
	x := bld.Var("x", 32)
	e := x
	for i := 0; i < 64; i++ {
		e = bld.Add(bld.Mul(e, bld.Const(3, 32)), x)
	}
	env := Env{x: 7}
	// oneshot pays for a fresh memo per call (the Eval wrapper); reused is
	// the hot-path shape: one Evaluator, one epoch per evaluation.
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			evalSink = Eval(e, env)
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var ev Evaluator
		for i := 0; i < b.N; i++ {
			ev.Reset(env)
			evalSink = ev.Eval(e)
		}
	})
}

func BenchmarkIteChainBuild(b *testing.B) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := bld.Const(0, 8)
		for k := 0; k < 32; k++ {
			v = bld.Ite(bld.Eq(x, bld.Const(uint64(k), 8)),
				bld.Const(uint64(k+i)&0xff, 8), v)
		}
	}
}
