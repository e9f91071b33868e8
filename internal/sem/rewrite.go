package sem

import "natix/internal/dom"

// RewritePaths applies the XPath-specific structural rewrites the paper
// lists as future work (section 7, "algebraic rewriting techniques
// [12, 18]") on the normalized IR:
//
//  1. merging the descendant-or-self::node() step produced by the //
//     abbreviation with a following child (or descendant) step into a
//     single descendant step, and
//  2. dropping predicate-free self::node() steps, except the last one of
//     a relative path that is nothing else (".").
//
// Both rewrites are applied only where they provably preserve the result
// node-set: the absorbed step must carry no predicates, and the following
// step's predicates must not use position() or last() (their context — the
// candidates per descendant-or-self node — changes under the merge; the
// final set would not, but positional predicates select by context, see
// sections 3.3.3/3.3.4).
func RewritePaths(e Expr) Expr {
	switch n := e.(type) {
	case *Path:
		out := &Path{Absolute: n.Absolute}
		if n.Base != nil {
			out.Base = RewritePaths(n.Base)
		}
		out.FilterPreds = rewritePreds(n.FilterPreds)
		out.Steps = rewriteSteps(n.Steps)
		if len(out.Steps) == 0 && len(n.Steps) > 0 && n.Base == nil && !n.Absolute {
			// Keep one self::node() of a path that is only the context
			// node ("."): an empty relative path compiles to a register
			// alias of the context, and a union branch renaming that
			// alias to its shared column would leave the column unwritten.
			s := *n.Steps[0]
			out.Steps = []*Step{&s}
		}
		return out
	case *Union:
		out := &Union{Terms: make([]Expr, len(n.Terms))}
		for i, t := range n.Terms {
			out.Terms[i] = RewritePaths(t)
		}
		return out
	case *Arith:
		return &Arith{Op: n.Op, Left: RewritePaths(n.Left), Right: RewritePaths(n.Right)}
	case *Neg:
		return &Neg{X: RewritePaths(n.X)}
	case *Compare:
		return &Compare{Op: n.Op, Left: RewritePaths(n.Left), Right: RewritePaths(n.Right)}
	case *Logic:
		out := &Logic{Or: n.Or, Terms: make([]Expr, len(n.Terms))}
		for i, t := range n.Terms {
			out.Terms[i] = RewritePaths(t)
		}
		return out
	case *Call:
		out := &Call{Fn: n.Fn, Args: make([]Expr, len(n.Args))}
		for i, a := range n.Args {
			out.Args[i] = RewritePaths(a)
		}
		return out
	}
	return e
}

func rewritePreds(preds []*Predicate) []*Predicate {
	if preds == nil {
		return nil
	}
	out := make([]*Predicate, len(preds))
	for i, p := range preds {
		np := &Predicate{UsesPosition: p.UsesPosition, UsesLast: p.UsesLast}
		np.Clauses = make([]*Clause, len(p.Clauses))
		for j, c := range p.Clauses {
			nc := *c
			nc.Expr = RewritePaths(c.Expr)
			np.Clauses[j] = &nc
		}
		out[i] = np
	}
	return out
}

func rewriteSteps(steps []*Step) []*Step {
	out := make([]*Step, 0, len(steps))
	for _, s := range steps {
		ns := &Step{Axis: s.Axis, Test: s.Test, Preds: rewritePreds(s.Preds)}

		// Drop a bare self::node() step: it maps each context node to
		// itself.
		if ns.Axis == dom.AxisSelf && ns.Test.Kind == dom.TestAnyNode && len(ns.Preds) == 0 {
			continue
		}

		// Merge descendant-or-self::node() (no predicates) with a
		// following child/descendant step without positional predicates.
		if len(out) > 0 {
			prev := out[len(out)-1]
			if prev.Axis == dom.AxisDescendantOrSelf &&
				prev.Test.Kind == dom.TestAnyNode && len(prev.Preds) == 0 &&
				!usesPosition(ns.Preds) {
				switch ns.Axis {
				case dom.AxisChild, dom.AxisDescendant:
					ns.Axis = dom.AxisDescendant
					out[len(out)-1] = ns
					continue
				case dom.AxisDescendantOrSelf:
					// desc-or-self ∘ desc-or-self = desc-or-self.
					ns.Axis = dom.AxisDescendantOrSelf
					out[len(out)-1] = ns
					continue
				}
			}
		}
		out = append(out, ns)
	}
	return out
}

func usesPosition(preds []*Predicate) bool {
	for _, p := range preds {
		if p.UsesPosition || p.UsesLast {
			return true
		}
	}
	return false
}
