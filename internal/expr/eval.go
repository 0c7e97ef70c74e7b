package expr

import "fmt"

// Env assigns concrete values to variables for evaluation. Values are stored
// truncated to the variable's width; booleans as 0/1. Missing variables
// evaluate to zero (the solver's convention for don't-care variables).
type Env map[*Expr]uint64

// Eval computes the concrete value of e under env with a fresh Evaluator.
// Boolean results are 0/1. Hot callers that evaluate many terms keep one
// Evaluator instead.
func Eval(e *Expr, env Env) uint64 {
	var ev Evaluator
	ev.Reset(env)
	return ev.Eval(e)
}

// EvalBool evaluates a boolean expression under env.
func EvalBool(e *Expr, env Env) bool {
	var ev Evaluator
	ev.Reset(env)
	return ev.EvalBool(e)
}

// evalPageBits sizes one memo page: 256 slots, 6 KiB.
const (
	evalPageBits = 8
	evalPageSize = 1 << evalPageBits
)

// evalSlot memoizes one node's value within one epoch. It records the node
// itself, so a node of another builder that shares the ID misses and is
// recomputed rather than aliased.
type evalSlot struct {
	node  *Expr
	val   uint64
	epoch uint32
}

type evalPage [evalPageSize]evalSlot

// Evaluator computes concrete values of expressions; it is the reference
// semantics: the simplifier, the bit-blaster, and the engine's concrete fast
// paths are all tested against it.
//
// Its memo is dense and indexed by node ID (pages of slots, allocated where
// IDs are touched, so a builder with millions of nodes costs only the pages a
// caller evaluates). Reset starts a new epoch under an environment in O(1):
// every slot stamped with an older epoch is stale. Subterms shared between
// the terms evaluated in one epoch are computed once. The zero value is
// ready to use after Reset. An Evaluator is single-goroutine state.
type Evaluator struct {
	env   Env
	epoch uint32
	pages []*evalPage
}

// Reset starts a new epoch: values memoized so far are forgotten and later
// evaluations read variables from env.
func (ev *Evaluator) Reset(env Env) {
	ev.env = env
	ev.epoch++
	if ev.epoch == 0 {
		// The stamps wrapped: a slot written 2^32 epochs ago would read as
		// current. Clear them all once and restart at epoch 1.
		for _, pg := range ev.pages {
			if pg != nil {
				*pg = evalPage{}
			}
		}
		ev.epoch = 1
	}
}

// EvalBool evaluates a boolean expression in the current epoch.
func (ev *Evaluator) EvalBool(e *Expr) bool {
	if !e.IsBool() {
		panic("expr: EvalBool on non-bool expression")
	}
	return ev.Eval(e) != 0
}

// slot returns the memo slot for ID id, allocating its page on first use.
// Pages never move, so the pointer stays valid while the directory grows.
func (ev *Evaluator) slot(id uint64) *evalSlot {
	p := id >> evalPageBits
	if p >= uint64(len(ev.pages)) {
		ev.pages = append(ev.pages, make([]*evalPage, p+1-uint64(len(ev.pages)))...)
	}
	pg := ev.pages[p]
	if pg == nil {
		pg = new(evalPage)
		ev.pages[p] = pg
	}
	return &pg[id&(evalPageSize-1)]
}

// Eval computes the concrete value of e in the current epoch. Boolean
// results are 0/1.
func (ev *Evaluator) Eval(e *Expr) uint64 {
	if e.Kind == KConst {
		return e.Val // not memoized: no slot read beats the field read
	}
	sl := ev.slot(e.id)
	if sl.epoch == ev.epoch && sl.node == e {
		return sl.val
	}
	var v uint64
	switch e.Kind {
	case KVar:
		v = truncate(ev.env[e], e.Width)
	case KNot:
		v = 1 - ev.Eval(e.Kids[0])
	case KAnd:
		// n-ary conjunction: all kids must hold.
		v = 1
		for _, k := range e.Kids {
			v &= ev.Eval(k)
		}
	case KOr:
		// n-ary disjunction: any kid suffices.
		v = 0
		for _, k := range e.Kids {
			v |= ev.Eval(k)
		}
	case KXor:
		v = ev.Eval(e.Kids[0]) ^ ev.Eval(e.Kids[1])
	case KImplies:
		v = (1 - ev.Eval(e.Kids[0])) | ev.Eval(e.Kids[1])
	case KEq:
		v = boolVal(ev.Eval(e.Kids[0]) == ev.Eval(e.Kids[1]))
	case KUlt:
		v = boolVal(ev.Eval(e.Kids[0]) < ev.Eval(e.Kids[1]))
	case KUle:
		v = boolVal(ev.Eval(e.Kids[0]) <= ev.Eval(e.Kids[1]))
	case KSlt:
		w := e.Kids[0].Width
		v = boolVal(int64(signExtend(ev.Eval(e.Kids[0]), w)) <
			int64(signExtend(ev.Eval(e.Kids[1]), w)))
	case KSle:
		w := e.Kids[0].Width
		v = boolVal(int64(signExtend(ev.Eval(e.Kids[0]), w)) <=
			int64(signExtend(ev.Eval(e.Kids[1]), w)))
	case KAdd:
		v = truncate(ev.Eval(e.Kids[0])+ev.Eval(e.Kids[1]), e.Width)
	case KSub:
		v = truncate(ev.Eval(e.Kids[0])-ev.Eval(e.Kids[1]), e.Width)
	case KMul:
		v = truncate(ev.Eval(e.Kids[0])*ev.Eval(e.Kids[1]), e.Width)
	case KUDiv:
		a, c := ev.Eval(e.Kids[0]), ev.Eval(e.Kids[1])
		if c == 0 {
			v = mask(e.Width)
		} else {
			v = a / c
		}
	case KURem:
		a, c := ev.Eval(e.Kids[0]), ev.Eval(e.Kids[1])
		if c == 0 {
			v = a
		} else {
			v = a % c
		}
	case KSDiv:
		w := e.Width
		sa := int64(signExtend(ev.Eval(e.Kids[0]), w))
		sc := int64(signExtend(ev.Eval(e.Kids[1]), w))
		switch {
		case sc == 0 && sa < 0:
			v = 1
		case sc == 0:
			v = mask(w)
		case sa == -1<<63 && sc == -1:
			v = uint64(sa)
		default:
			v = truncate(uint64(sa/sc), w)
		}
	case KSRem:
		w := e.Width
		sa := int64(signExtend(ev.Eval(e.Kids[0]), w))
		sc := int64(signExtend(ev.Eval(e.Kids[1]), w))
		switch {
		case sc == 0:
			v = truncate(uint64(sa), w)
		case sa == -1<<63 && sc == -1:
			v = 0
		default:
			v = truncate(uint64(sa%sc), w)
		}
	case KBAnd:
		v = ev.Eval(e.Kids[0]) & ev.Eval(e.Kids[1])
	case KBOr:
		v = ev.Eval(e.Kids[0]) | ev.Eval(e.Kids[1])
	case KBXor:
		v = ev.Eval(e.Kids[0]) ^ ev.Eval(e.Kids[1])
	case KBNot:
		v = truncate(^ev.Eval(e.Kids[0]), e.Width)
	case KNeg:
		v = truncate(-ev.Eval(e.Kids[0]), e.Width)
	case KShl:
		a, c := ev.Eval(e.Kids[0]), ev.Eval(e.Kids[1])
		if c >= uint64(e.Width) {
			v = 0
		} else {
			v = truncate(a<<c, e.Width)
		}
	case KLShr:
		a, c := ev.Eval(e.Kids[0]), ev.Eval(e.Kids[1])
		if c >= uint64(e.Width) {
			v = 0
		} else {
			v = a >> c
		}
	case KAShr:
		a, c := ev.Eval(e.Kids[0]), ev.Eval(e.Kids[1])
		sa := int64(signExtend(a, e.Width))
		if c >= uint64(e.Width) {
			c = uint64(e.Width) - 1
		}
		v = truncate(uint64(sa>>c), e.Width)
	case KZExt:
		v = ev.Eval(e.Kids[0])
	case KSExt:
		v = truncate(signExtend(ev.Eval(e.Kids[0]), uint8(e.Aux)), e.Width)
	case KExtract:
		v = truncate(ev.Eval(e.Kids[0])>>e.Aux, e.Width)
	case KConcat:
		hi, lo := e.Kids[0], e.Kids[1]
		v = ev.Eval(hi)<<lo.Width | ev.Eval(lo)
	case KIte:
		if ev.Eval(e.Kids[0]) != 0 {
			v = ev.Eval(e.Kids[1])
		} else {
			v = ev.Eval(e.Kids[2])
		}
	default:
		panic(fmt.Sprintf("expr: eval of unknown kind %v", e.Kind))
	}
	*sl = evalSlot{node: e, val: v, epoch: ev.epoch}
	return v
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
