package natix_test

import (
	"runtime"
	"testing"

	"natix"
	"natix/internal/bench"
)

// raceEnabled reports a build with the race detector (set in
// race_enabled_test.go).
var raceEnabled bool

// TestDupElimAllocGuard bounds the bytes one run of a Fig. 5 query
// allocates at 20,000 elements, serial and at two exchange workers. Most
// of what these queries allocate is the duplicate eliminations' state, so
// the bound pins the dense node-identity set against a return to hash
// sets (which allocated about 2 MB per q3 run and 11 MB per q1 run at
// Workers=2). It counts bytes, not time, so it runs on any machine. Under
// the race detector, sync.Pool drops pooled batch buffers at random, which
// costs the exchange's buffer traffic about 3 MB more per q1 run; the
// parallel case gets its own bound there, still below the hash sets'
// figure under race (14.5 MB).
func TestDupElimAllocGuard(t *testing.T) {
	mem := bench.GeneratedDoc(20000)
	root := natix.RootNode(mem)
	cases := []struct {
		id          string
		workers     int
		boundMB     float64
		raceBoundMB float64
	}{
		{"q3", 0, 0.5, 0.5},
		{"q1", 2, 6, 10},
	}
	for _, c := range cases {
		var xpath string
		for _, spec := range bench.Fig5 {
			if spec.ID == c.id {
				xpath = spec.XPath
			}
		}
		q := natix.MustCompileWith(xpath, natix.Options{Workers: c.workers})
		if _, err := q.Run(root, nil); err != nil { // warm the buffer pools
			t.Fatal(err)
		}
		bound := c.boundMB
		if raceEnabled {
			bound = c.raceBoundMB
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := q.Run(root, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
		t.Logf("%s Workers=%d: %.2f MB allocated per run (bound %.1f MB)", c.id, c.workers, mb, bound)
		if mb > bound {
			t.Errorf("%s Workers=%d: %.2f MB allocated per run, above the %.1f MB bound", c.id, c.workers, mb, bound)
		}
	}
}
