package sem

import (
	"testing"

	"natix/internal/dom"
	"natix/internal/xpath"
)

func rewrite(t *testing.T, expr string) Expr {
	t.Helper()
	ast, err := xpath.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Analyze(ast, &Env{})
	if err != nil {
		t.Fatal(err)
	}
	return RewritePaths(out)
}

func pathAxes(t *testing.T, e Expr) []dom.Axis {
	t.Helper()
	p, ok := e.(*Path)
	if !ok {
		t.Fatalf("expected *Path, got %T", e)
	}
	var out []dom.Axis
	for _, s := range p.Steps {
		out = append(out, s.Axis)
	}
	return out
}

func TestDescOrSelfMerge(t *testing.T) {
	tests := []struct {
		expr string
		want []dom.Axis
	}{
		// //x: desc-or-self::node()/child::x -> descendant::x.
		{"//x", []dom.Axis{dom.AxisDescendant}},
		{"/a//b", []dom.Axis{dom.AxisChild, dom.AxisDescendant}},
		{"//a//b", []dom.Axis{dom.AxisDescendant, dom.AxisDescendant}},
		// Value predicates do not block the merge.
		{"//x[@k = '1']", []dom.Axis{dom.AxisDescendant}},
		// Positional predicates do: their context would change.
		{"//x[2]", []dom.Axis{dom.AxisDescendantOrSelf, dom.AxisChild}},
		{"//x[last()]", []dom.Axis{dom.AxisDescendantOrSelf, dom.AxisChild}},
		// A predicate on the descendant-or-self step blocks it too.
		{"descendant-or-self::node()[1]/x", []dom.Axis{dom.AxisDescendantOrSelf, dom.AxisChild}},
		// desc-or-self absorbs a following descendant.
		{"descendant-or-self::node()/descendant::x", []dom.Axis{dom.AxisDescendant}},
		// ...and a following desc-or-self.
		{"descendant-or-self::node()/descendant-or-self::x", []dom.Axis{dom.AxisDescendantOrSelf}},
		// Other following axes stay (//@id keeps the attribute step).
		{"//@id", []dom.Axis{dom.AxisDescendantOrSelf, dom.AxisAttribute}},
		{"//text()", []dom.Axis{dom.AxisDescendant}},
	}
	for _, tc := range tests {
		got := pathAxes(t, rewrite(t, tc.expr))
		if len(got) != len(tc.want) {
			t.Errorf("%q: axes %v, want %v", tc.expr, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%q: axes %v, want %v", tc.expr, got, tc.want)
				break
			}
		}
	}
}

func TestSelfStepDrop(t *testing.T) {
	// ./a is child::a after the rewrite.
	if got := pathAxes(t, rewrite(t, "./a")); len(got) != 1 || got[0] != dom.AxisChild {
		t.Errorf("./a axes = %v", got)
	}
	// A lone "." keeps one self::node() step: as an empty relative path it
	// would compile to a register alias that a union branch cannot rename.
	for _, expr := range []string{".", "./self::node()"} {
		if got := pathAxes(t, rewrite(t, expr)); len(got) != 1 || got[0] != dom.AxisSelf {
			t.Errorf("%s axes = %v", expr, got)
		}
	}
	// self with a node test is NOT dropped.
	if got := pathAxes(t, rewrite(t, "self::x")); len(got) != 1 || got[0] != dom.AxisSelf {
		t.Errorf("self::x axes = %v", got)
	}
	// self with predicates is NOT dropped.
	if got := pathAxes(t, rewrite(t, "self::node()[b]")); len(got) != 1 {
		t.Errorf("self::node()[b] axes = %v", got)
	}
	// //. is descendant-or-self::node().
	if got := pathAxes(t, rewrite(t, "//.")); len(got) != 1 || got[0] != dom.AxisDescendantOrSelf {
		t.Errorf("//. axes = %v", got)
	}
}

func TestRewriteDescendsEverywhere(t *testing.T) {
	// Rewrites apply inside predicates, function arguments, unions and
	// comparisons.
	e := rewrite(t, "count(//a[.//b]) + count(//c | //d)")
	merged := 0
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case *Path:
			for _, s := range n.Steps {
				if s.Axis == dom.AxisDescendant {
					merged++
				}
				for _, p := range s.Preds {
					for _, c := range p.Clauses {
						walk(c.Expr)
					}
				}
			}
			if n.Base != nil {
				walk(n.Base)
			}
		case *Call:
			for _, a := range n.Args {
				walk(a)
			}
		case *Arith:
			walk(n.Left)
			walk(n.Right)
		case *Union:
			for _, term := range n.Terms {
				walk(term)
			}
		case *Logic:
			for _, term := range n.Terms {
				walk(term)
			}
		}
	}
	walk(e)
	// //a, .//b, //c, //d all merge.
	if merged != 4 {
		t.Errorf("merged descendant steps = %d, want 4\n%s", merged, e)
	}
}
