package physical

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"natix/internal/dom"
	"natix/internal/guard"
	"natix/internal/nvm"
)

// oracleDedup is the hash-set duplicate elimination the nodeSet replaced:
// one map keyed by node identity or, for scalar values, by nvm.Val.Key(),
// charging keyBytes per distinct key. The nil node is the zero key, as in
// the old batched loop; the old scalar loop keyed it per document, which
// the shared set no longer does.
type oracleDedup struct {
	seen    map[any]struct{}
	dropped int64
	charged int64
}

func (o *oracleDedup) reset() { o.seen, o.charged = map[any]struct{}{}, 0 }

func (o *oracleDedup) key(v nvm.Val) any {
	if !v.IsNode() {
		return v.Key()
	}
	nd := v.Node()
	if nd.IsNil() {
		return nodeIdent{}
	}
	return nodeIdent{doc: nd.Doc.DocID(), id: nd.ID}
}

func (o *oracleDedup) admit(v nvm.Val) bool {
	k := o.key(v)
	if _, dup := o.seen[k]; dup {
		o.dropped++
		return false
	}
	o.seen[k] = struct{}{}
	o.charged += keyBytes
	return true
}

// flatDoc parses a document of one root element with n empty children.
func flatDoc(t *testing.T, n int) *dom.MemDoc {
	t.Helper()
	d, err := dom.ParseString("<r>" + strings.Repeat("<x/>", n) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// nodeGen draws nodes from two documents: in-range IDs (restricted to one
// half of each document, so consecutive rounds can use disjoint working
// sets), IDs above NodeCount, and the nil node with and without a
// document.
type nodeGen struct {
	rng  *rand.Rand
	a, b *dom.MemDoc
}

func (g *nodeGen) node(half int) dom.Node {
	pick := func(d *dom.MemDoc) dom.NodeID {
		n := d.NodeCount() / 2
		return dom.NodeID(1 + half*n + g.rng.Intn(n))
	}
	switch r := g.rng.Intn(100); {
	case r < 60:
		return dom.Node{Doc: g.a, ID: pick(g.a)}
	case r < 75:
		return dom.Node{Doc: g.b, ID: pick(g.b)}
	case r < 85:
		return dom.Node{Doc: g.a, ID: dom.NodeID(g.a.NodeCount() + 1 + g.rng.Intn(5000))}
	case r < 90:
		return dom.Node{Doc: g.b, ID: dom.NodeID(g.b.NodeCount() + 1 + g.rng.Intn(50))}
	case r < 95:
		return dom.Node{Doc: g.a, ID: dom.NilNode}
	default:
		return dom.Node{}
	}
}

func (g *nodeGen) val(half int) nvm.Val {
	switch g.rng.Intn(10) {
	case 0:
		return nvm.NumVal(float64(g.rng.Intn(20)))
	case 1:
		return nvm.StrVal(string(rune('a' + g.rng.Intn(20))))
	case 2:
		return nvm.BoolVal(g.rng.Intn(2) == 0)
	}
	nd := g.node(half)
	if nd.Doc == nil {
		// A register never holds a node without a document.
		nd = dom.Node{Doc: g.b, ID: dom.NilNode}
	}
	return nvm.NodeVal(nd)
}

// checkEmpty asserts a reset left no chunk behind in the index.
func checkEmpty(t *testing.T, s *nodeSet) {
	t.Helper()
	if len(s.touched) != 0 || len(s.over) != 0 {
		t.Fatalf("reset left %d touched chunks, %d overflow keys", len(s.touched), len(s.over))
	}
	for i, ch := range s.chunks {
		if ch != nil {
			t.Fatalf("reset left chunk %d allocated in the index", i)
		}
	}
}

// TestNodeSetMatchesMapOracle drives the batched filter and the scalar
// admit against the old hash-set loop on the same random inputs: the kept
// tuples (first occurrences, in order), Stats.DupDropped and the governor
// charge must agree after every batch, and each reset must release the
// charge and leave the set empty for a disjoint working set — sometimes
// from the other document first, which rebinds the bitmap.
func TestNodeSetMatchesMapOracle(t *testing.T) {
	g := &nodeGen{rng: rand.New(rand.NewSource(13)), a: flatDoc(t, 10000), b: flatDoc(t, 300)}
	for _, scalar := range []bool{false, true} {
		ex := &Exec{Gov: guard.New(context.Background(), guard.Limits{}, nil)}
		var d dedup
		var o oracleDedup
		for round := 0; round < 40; round++ {
			d.reset(ex)
			o.reset()
			checkEmpty(t, &d.set)
			if ex.Gov.Bytes() != 0 {
				t.Fatalf("reset left %d bytes charged", ex.Gov.Bytes())
			}
			if round%3 == 2 {
				// Open the round on the second document.
				first := []dom.Node{{Doc: g.b, ID: 1}}
				if n, err := d.filter(ex, first, first); n != 1 || err != nil || !o.admit(nvm.NodeVal(first[0])) {
					t.Fatalf("first node of round %d not kept (%v)", round, err)
				}
			}
			half := round % 2
			for batch := 0; batch < 20; batch++ {
				k := 1 + g.rng.Intn(300)
				var got, want []nvm.Val
				if scalar {
					for i := 0; i < k; i++ {
						v := g.val(half)
						keep, err := d.admit(ex, v)
						if err != nil {
							t.Fatal(err)
						}
						if keep {
							got = append(got, v)
						}
						if o.admit(v) {
							want = append(want, v)
						}
					}
				} else {
					in := make([]dom.Node, k)
					for i := range in {
						in[i] = g.node(half)
					}
					for _, nd := range in {
						if o.admit(nvm.NodeVal(nd)) {
							want = append(want, nvm.NodeVal(nd))
						}
					}
					n, err := d.filter(ex, in, in)
					if err != nil {
						t.Fatal(err)
					}
					for _, nd := range in[:n] {
						got = append(got, nvm.NodeVal(nd))
					}
				}
				if len(got) != len(want) {
					t.Fatalf("scalar=%v round %d batch %d: kept %d, oracle kept %d", scalar, round, batch, len(got), len(want))
				}
				for i := range got {
					if o.key(got[i]) != o.key(want[i]) {
						t.Fatalf("scalar=%v round %d batch %d: tuple %d is %v, oracle %v", scalar, round, batch, i, o.key(got[i]), o.key(want[i]))
					}
				}
				if ex.Stats.DupDropped != o.dropped {
					t.Fatalf("scalar=%v round %d: DupDropped %d, oracle %d", scalar, round, ex.Stats.DupDropped, o.dropped)
				}
				if ex.Gov.Bytes() != o.charged || d.charged != o.charged {
					t.Fatalf("scalar=%v round %d: charged %d (governor %d), oracle %d", scalar, round, d.charged, ex.Gov.Bytes(), o.charged)
				}
			}
		}
	}
}

// TestNodeSetByteLimitTrips checks that MaxBytes trips on the same batch
// as the old loop: the first whose distinct keys push the charge past the
// limit.
func TestNodeSetByteLimitTrips(t *testing.T) {
	g := &nodeGen{rng: rand.New(rand.NewSource(7)), a: flatDoc(t, 10000), b: flatDoc(t, 300)}
	const limit = 300 * keyBytes
	ex := &Exec{Gov: guard.New(context.Background(), guard.Limits{MaxBytes: limit}, nil)}
	var d dedup
	var o oracleDedup
	o.reset()
	for batch := 0; ; batch++ {
		in := make([]dom.Node, 64)
		for i := range in {
			in[i] = g.node(0)
		}
		for _, nd := range in {
			o.admit(nvm.NodeVal(nd))
		}
		_, err := d.filter(ex, in, in)
		if tripped := o.charged > limit; tripped != (err != nil) {
			t.Fatalf("batch %d: oracle charge %d against limit %d, filter error %v", batch, o.charged, limit, err)
		}
		if err != nil {
			var le *guard.LimitError
			if !errors.As(err, &le) || le.Budget != guard.BudgetBytes {
				t.Fatalf("batch %d: error %v, want a byte-budget LimitError", batch, err)
			}
			return
		}
	}
}
