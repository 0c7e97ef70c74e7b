package expr

// Correctness tests for the reusable Evaluator: a fuzzed comparison of one
// long-lived Evaluator against a naive recursive reference, plus the two
// ways its ID-indexed memo could alias — epoch wraparound and nodes of two
// builders that share an ID.

import (
	"math"
	"math/rand"
	"testing"
)

// refEval is the naive reference: a direct recursive reading of each
// operator's definition, memoized per call only so shared DAGs stay linear.
func refEval(e *Expr, env Env, memo map[*Expr]uint64) uint64 {
	if v, ok := memo[e]; ok {
		return v
	}
	bits := func(v uint64, w uint8) uint64 { // keep the low w bits; bool: 0/1
		if w == 0 {
			if v != 0 {
				return 1
			}
			return 0
		}
		if w == 64 {
			return v
		}
		return v & (1<<w - 1)
	}
	signed := func(v uint64, w uint8) int64 { return int64(v<<(64-w)) >> (64 - w) }
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	k := func(i int) uint64 { return refEval(e.Kids[i], env, memo) }
	w := e.Width
	var v uint64
	switch e.Kind {
	case KConst:
		v = e.Val
	case KVar:
		v = bits(env[e], w)
	case KNot:
		v = b2u(k(0) == 0)
	case KAnd, KOr:
		all, any := true, false
		for i := range e.Kids {
			all = all && k(i) != 0
			any = any || k(i) != 0
		}
		v = b2u(all)
		if e.Kind == KOr {
			v = b2u(any)
		}
	case KXor:
		v = b2u((k(0) != 0) != (k(1) != 0))
	case KImplies:
		v = b2u(k(0) == 0 || k(1) != 0)
	case KEq:
		v = b2u(k(0) == k(1))
	case KUlt:
		v = b2u(k(0) < k(1))
	case KUle:
		v = b2u(k(0) <= k(1))
	case KSlt:
		kw := e.Kids[0].Width
		v = b2u(signed(k(0), kw) < signed(k(1), kw))
	case KSle:
		kw := e.Kids[0].Width
		v = b2u(signed(k(0), kw) <= signed(k(1), kw))
	case KAdd:
		v = bits(k(0)+k(1), w)
	case KSub:
		v = bits(k(0)-k(1), w)
	case KMul:
		v = bits(k(0)*k(1), w)
	case KUDiv: // SMT-LIB: x/0 is all ones
		v = bits(math.MaxUint64, w)
		if k(1) != 0 {
			v = k(0) / k(1)
		}
	case KURem: // x%0 is x
		v = k(0)
		if k(1) != 0 {
			v = k(0) % k(1)
		}
	case KSDiv:
		a, c := signed(k(0), w), signed(k(1), w)
		switch {
		case c == 0 && a < 0:
			v = 1
		case c == 0:
			v = bits(math.MaxUint64, w)
		case a == math.MinInt64 && c == -1:
			v = uint64(a)
		default:
			v = bits(uint64(a/c), w)
		}
	case KSRem:
		a, c := signed(k(0), w), signed(k(1), w)
		switch {
		case c == 0:
			v = bits(uint64(a), w)
		case a == math.MinInt64 && c == -1:
			v = 0
		default:
			v = bits(uint64(a%c), w)
		}
	case KBAnd:
		v = k(0) & k(1)
	case KBOr:
		v = k(0) | k(1)
	case KBXor:
		v = k(0) ^ k(1)
	case KBNot:
		v = bits(^k(0), w)
	case KNeg:
		v = bits(-k(0), w)
	case KShl:
		if k(1) < uint64(w) {
			v = bits(k(0)<<k(1), w)
		}
	case KLShr:
		if k(1) < uint64(w) {
			v = k(0) >> k(1)
		}
	case KAShr:
		s := k(1)
		if s >= uint64(w) {
			s = uint64(w) - 1
		}
		v = bits(uint64(signed(k(0), w)>>s), w)
	case KZExt:
		v = k(0)
	case KSExt:
		v = bits(uint64(signed(k(0), uint8(e.Aux))), w)
	case KExtract:
		v = bits(k(0)>>e.Aux, w)
	case KConcat:
		v = k(0)<<e.Kids[1].Width | k(1)
	case KIte:
		v = k(2)
		if k(0) != 0 {
			v = k(1)
		}
	default:
		panic("refEval: unknown kind " + e.Kind.String())
	}
	memo[e] = v
	return v
}

// fuzzEv is deliberately shared by every FuzzEvaluator input: each input
// builds a fresh builder whose IDs restart at zero, so slots left by the
// previous input's nodes must miss rather than alias.
var fuzzEv Evaluator

func FuzzEvaluator(f *testing.F) {
	f.Add([]byte{7, 0, 1, 10, 0, 1, 11, 1, 2, 13, 0, 2}, int64(1))
	f.Add([]byte{8, 1, 0, 12, 1, 0, 10, 1, 2, 11, 2, 3}, int64(2))
	f.Add([]byte{0, 0, 1, 2, 2, 2, 6, 2, 0, 9, 3, 1, 7, 4, 2}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		b := NewBuilder()
		bools, x, y, p := buildFuzzExprs(b, data)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 64; round++ {
			env := Env{x: rng.Uint64() & 0xff, y: rng.Uint64() & 0xff, p: rng.Uint64() & 1}
			fuzzEv.Reset(env)
			ref := map[*Expr]uint64{}
			// Visit the terms in a random order, some twice, so memo
			// hits inside one epoch are exercised too.
			for _, i := range rng.Perm(len(bools)) {
				for rep := 0; rep <= i%2; rep++ {
					c := bools[i]
					if got, want := fuzzEv.Eval(c), refEval(c, env, ref); got != want {
						t.Fatalf("x=%d y=%d p=%d: Evaluator %d, reference %d for %s",
							env[x], env[y], env[p], got, want, c)
					}
				}
			}
		}
	})
}

// TestEvaluatorAllKinds checks every operator against the reference on a
// grid of operand values, one epoch per assignment.
func TestEvaluatorAllKinds(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	p := b.Var("p", 0)
	terms := []*Expr{
		b.Not(p), b.And(p, b.Ult(x, y)), b.Or(p, b.Eq(x, y)), b.Xor(p, b.Ule(x, y)),
		b.Implies(p, b.Slt(x, y)), b.Sle(x, y),
		b.Add(x, y), b.Sub(x, y), b.Mul(x, y), b.UDiv(x, y), b.URem(x, y),
		b.SDiv(x, y), b.SRem(x, y), b.BAnd(x, y), b.BOr(x, y), b.BXor(x, y),
		b.BNot(x), b.Neg(x), b.Shl(x, y), b.LShr(x, y), b.AShr(x, y),
		b.ZExt(x, 16), b.SExt(x, 16), b.Extract(x, 3, 4), b.Concat(x, y),
		b.Ite(p, x, y),
	}
	var ev Evaluator
	for _, xv := range []uint64{0, 1, 2, 7, 0x7f, 0x80, 0xff} {
		for _, yv := range []uint64{0, 1, 3, 8, 0x7f, 0x80, 0xff} {
			for pv := uint64(0); pv < 2; pv++ {
				env := Env{x: xv, y: yv, p: pv}
				ev.Reset(env)
				ref := map[*Expr]uint64{}
				for _, e := range terms {
					if got, want := ev.Eval(e), refEval(e, env, ref); got != want {
						t.Fatalf("x=%d y=%d p=%d: %s = %d, reference %d", xv, yv, pv, e, got, want)
					}
				}
			}
		}
	}
}

// TestEvaluatorEpochWraparound forces the epoch counter to wrap: a slot
// stamped in the first epoch must not read as current after the wrap.
func TestEvaluatorEpochWraparound(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	e := b.Add(x, b.Const(1, 8))
	var ev Evaluator
	ev.Reset(Env{x: 1})
	if got := ev.Eval(e); got != 2 {
		t.Fatalf("epoch 1: got %d, want 2", got)
	}
	ev.epoch = math.MaxUint32 // the next Reset wraps back to epoch 1
	ev.Reset(Env{x: 10})
	if ev.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", ev.epoch)
	}
	if got := ev.Eval(e); got != 11 {
		t.Fatalf("after wrap: got %d, want 11 (stale slot from the first epoch aliased)", got)
	}
}

// TestEvaluatorTwoBuildersSameID evaluates nodes of two builders that share
// IDs in one epoch: each must get its own value, in any order.
func TestEvaluatorTwoBuildersSameID(t *testing.T) {
	b1, b2 := NewBuilder(), NewBuilder()
	x1, x2 := b1.Var("x", 8), b2.Var("x", 8)
	e1 := b1.Add(x1, b1.Const(1, 8))
	e2 := b2.Add(x2, b2.Const(2, 8))
	if x1.ID() != x2.ID() || e1.ID() != e2.ID() {
		t.Fatalf("precondition: IDs differ (%d/%d, %d/%d)", x1.ID(), x2.ID(), e1.ID(), e2.ID())
	}
	var ev Evaluator
	ev.Reset(Env{x1: 5, x2: 9})
	for round := 0; round < 2; round++ {
		if got := ev.Eval(e1); got != 6 {
			t.Fatalf("round %d: builder 1 node = %d, want 6", round, got)
		}
		if got := ev.Eval(e2); got != 11 {
			t.Fatalf("round %d: builder 2 node = %d, want 11", round, got)
		}
		if got := ev.Eval(x1); got != 5 {
			t.Fatalf("round %d: builder 1 var = %d, want 5", round, got)
		}
	}
}
