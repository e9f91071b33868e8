package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"natix"
	"natix/internal/bench"
	"natix/internal/codegen"
	"natix/internal/dom"
	"natix/internal/gen"
	"natix/internal/interp"
	"natix/internal/sem"
	"natix/internal/store"
	"natix/internal/translate"
	"natix/internal/xpath"
)

// The library workloads call the engine the way an application embedding
// natix does: one client, closed loop, each operation CompileWith +
// RunContext (the paper's compile+execute measure).

// fig10Publications is the synthetic DBLP scale: its store image (~140 MB)
// is about 70x the default buffer, so every pass faults most of its pages.
const fig10Publications = 100000

// setupRepeats is how many times a run builds a library workload's inputs.
const setupRepeats = 3

// libQuery is one query of a library workload with its oracle.
type libQuery struct {
	id    string
	xpath string
	// doc is what the measured operation runs on.
	doc natix.Document
	// mem is the in-memory document the oracle was computed on. It is the
	// same document as doc for fig5-mem-par; for fig10-store the traced
	// run keeps it for the natix-mem and interp columns.
	mem *dom.MemDoc
	// want is the interp answer: node identities in document order.
	want []dom.NodeID
}

type libWorkload struct {
	queries []libQuery
	opt     natix.Options
	// sd is the store-backed document (fig10-store only).
	sd *store.Doc
	// tailP is the workload's fixed tail percentile: with the op counts a
	// run reaches, it leaves at least ten samples beyond it.
	tailP float64
	// ops numbers the operations, for the spans' operation IDs.
	ops int64
}

func (w *libWorkload) close() {
	if w.sd != nil {
		w.sd.Close()
	}
}

// oracleNodes evaluates expr with the reference interpreter.
func oracleNodes(mem *dom.MemDoc, expr string) ([]dom.NodeID, error) {
	q, err := interp.Compile(expr, nil, interp.Options{DedupSteps: true})
	if err != nil {
		return nil, err
	}
	v, err := q.Eval(dom.Node{Doc: mem, ID: mem.Root()}, nil)
	if err != nil {
		return nil, err
	}
	if !v.IsNodeSet() {
		return nil, fmt.Errorf("oracle: %s is not a node-set query", expr)
	}
	return sortedIDs(v.Nodes, mem)
}

// sortedIDs returns the node identities of nodes in document order (node
// IDs are assigned in document order by both backends), refusing nodes of
// another document.
func sortedIDs(nodes []dom.Node, doc dom.Document) ([]dom.NodeID, error) {
	ids := make([]dom.NodeID, len(nodes))
	for i, n := range nodes {
		if n.Doc != doc {
			return nil, fmt.Errorf("node %d of a foreign document", n.ID)
		}
		ids[i] = n.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// check compares a natix result with the oracle.
func (q *libQuery) check(res *natix.Result) bool {
	if !res.Value.IsNodeSet() {
		return false
	}
	got, err := sortedIDs(res.Value.Nodes, q.doc)
	if err != nil || len(got) != len(q.want) {
		return false
	}
	for i := range got {
		if got[i] != q.want[i] {
			return false
		}
	}
	return true
}

func setupFig10(cfg config, keepMem bool) (*libWorkload, error) {
	mem := gen.DBLP(gen.DBLPParams{Publications: fig10Publications, Seed: cfg.seed})
	path := filepath.Join(cfg.dir, "dblp.natix")
	if err := store.Write(path, mem); err != nil {
		return nil, err
	}
	sd, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	w := &libWorkload{sd: sd, tailP: 0.90}
	for _, spec := range bench.Fig10 {
		want, err := oracleNodes(mem, spec.XPath)
		if err != nil {
			sd.Close()
			return nil, err
		}
		q := libQuery{id: spec.ID, xpath: spec.XPath, doc: sd, want: want}
		if keepMem {
			q.mem = mem
		}
		w.queries = append(w.queries, q)
	}
	if err := warmPass(w); err != nil {
		sd.Close()
		return nil, err
	}
	return w, nil
}

func setupFig5(cfg config) (*libWorkload, error) {
	w := &libWorkload{opt: natix.Options{Workers: runtime.GOMAXPROCS(0)}, tailP: 0.95}
	docs := map[int]*dom.MemDoc{}
	for _, spec := range bench.Fig5 {
		// q2's preceding-sibling/following steps grow quadratically, so the
		// paper runs it on the small-document sweep.
		size := 20000
		if spec.ID == "q2" {
			size = 2000
		}
		if docs[size] == nil {
			docs[size] = gen.Generate(gen.Params{Elements: size, Fanout: bench.FanoutFor(size)})
		}
		want, err := oracleNodes(docs[size], spec.XPath)
		if err != nil {
			return nil, err
		}
		w.queries = append(w.queries, libQuery{id: spec.ID, xpath: spec.XPath, doc: docs[size], mem: docs[size], want: want})
	}
	// The generator is the paper's and takes no seed; the seed rotates
	// the round-robin order instead.
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(w.queries), func(i, j int) {
		w.queries[i], w.queries[j] = w.queries[j], w.queries[i]
	})
	return w, warmPass(w)
}

// opResult is one measured operation.
type opResult struct {
	q   int
	lat time.Duration
	ok  bool
	err error
}

// op runs query qi once: compile, execute, check. Spans cover each layer
// call; the exec span carries the engine and buffer counters, the op span
// the compile+execute time without the check as "ce_ms".
func (w *libWorkload) op(ctx context.Context, tr *tracer, opID int64, qi int) opResult {
	q := &w.queries[qi]
	root := tr.begin("op", 0, opID)
	root.set("q", float64(qi))
	defer root.end()

	t0 := time.Now()
	c := tr.begin("compile", root.id(), opID)
	p, err := natix.CompileWith(q.xpath, w.opt)
	c.end()
	if err != nil {
		return opResult{q: qi, err: err}
	}
	e := tr.begin("exec", root.id(), opID)
	e.set("q", float64(qi))
	var b0 store.BufferStats
	if e.recording() && w.sd != nil {
		b0 = w.sd.BufferStats()
	}
	res, err := p.RunContext(ctx, natix.RootNode(q.doc), nil)
	lat := time.Since(t0)
	root.set("ce_ms", ms(lat))
	if err == nil && e.recording() {
		e.set("axis_steps", float64(res.Stats.AxisSteps))
		e.set("tuples", float64(res.Stats.Tuples))
		e.set("dup_dropped", float64(res.Stats.DupDropped))
		e.set("sorted", float64(res.Stats.Sorted))
		e.set("memo_hits", float64(res.Stats.MemoHits))
		e.set("memo_misses", float64(res.Stats.MemoMisses))
		if w.sd != nil {
			b1 := w.sd.BufferStats()
			e.set("fix_hits", float64(b1.Hits-b0.Hits))
			e.set("fix_misses", float64(b1.Misses-b0.Misses))
			e.set("evictions", float64(b1.Evictions-b0.Evictions))
		}
	}
	e.end()
	if err != nil {
		return opResult{q: qi, lat: lat, err: err}
	}
	v := tr.begin("verify", root.id(), opID)
	ok := q.check(res)
	v.end()
	return opResult{q: qi, lat: lat, ok: ok}
}

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	results []opResult
	elapsed time.Duration
	// passes are the durations of the round-robin passes.
	passes []time.Duration
	mem    memDelta
}

// loop runs whole round-robin passes over the queries, at least one, until
// d has passed, so every query has the same number of samples.
func (w *libWorkload) loop(ctx context.Context, tr *tracer, d time.Duration, rep *report) phase {
	var ph phase
	mw := startMemWindow()
	start := time.Now()
	passStart := start
	for i := 0; i == 0 || i%len(w.queries) != 0 || time.Since(start) < d; i++ {
		w.ops++
		r := w.op(ctx, tr, w.ops, i%len(w.queries))
		rep.attempted++
		switch {
		case r.err != nil:
			rep.failed++
			fmt.Printf("error: %s: %v\n", w.queries[r.q].id, r.err)
		case !r.ok:
			rep.wrong++
			fmt.Printf("wrong answer: %s\n", w.queries[r.q].id)
		}
		ph.results = append(ph.results, r)
		if i%len(w.queries) == len(w.queries)-1 {
			now := time.Now()
			ph.passes = append(ph.passes, now.Sub(passStart))
			passStart = now
		}
	}
	ph.elapsed = time.Since(start)
	ph.mem = mw.stop()
	return ph
}

// add appends another phase's operations.
func (ph *phase) add(o phase) {
	ph.results = append(ph.results, o.results...)
	ph.passes = append(ph.passes, o.passes...)
	ph.elapsed += o.elapsed
	ph.mem.allocBytes += o.mem.allocBytes
	ph.mem.gcCycles += o.mem.gcCycles
	ph.mem.gcPause += o.mem.gcPause
}

// latencies returns all op latencies and each query's median latency, in
// milliseconds.
func (ph phase) latencies() (all, perQuery []float64) {
	byQ := map[int][]float64{}
	for _, r := range ph.results {
		all = append(all, ms(r.lat))
		byQ[r.q] = append(byQ[r.q], ms(r.lat))
	}
	for _, xs := range byQ {
		perQuery = append(perQuery, median(xs))
	}
	return all, perQuery
}

func (ph phase) correct() int {
	n := 0
	for _, r := range ph.results {
		if r.ok {
			n++
		}
	}
	return n
}

// opsPerSecond is the median over passes of each pass's operation rate,
// scaled by the share of correct answers.
func (ph phase) opsPerSecond(perPass int) float64 {
	var rates []float64
	for _, d := range ph.passes {
		rates = append(rates, float64(perPass)/d.Seconds())
	}
	return median(rates) * float64(ph.correct()) / float64(len(ph.results))
}

// reportEndToEnd prints the untraced metrics of a closed-loop phase.
func reportEndToEnd(rep *report, ph phase, w *libWorkload, setups []float64) {
	all, perQuery := ph.latencies()
	n := len(ph.results)
	rep.put("setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups)))
	rep.put("ops_per_s", "1/s", ph.opsPerSecond(len(w.queries)),
		fmt.Sprintf("(median over %d passes, n=%d in %.2fs, one client)", len(ph.passes), n, ph.elapsed.Seconds()))
	// Every pass runs each query once, so the pooled median sits exactly on
	// the border between two queries' latency ranges and jumps between
	// them; the median over queries of each query's median does not.
	rep.put("latency_p50_ms", "ms", median(perQuery), fmt.Sprintf("(median over %d queries of the per-query median, n=%d)", len(perQuery), n))
	rep.tail("latency_tail_ms", all, w.tailP)
	rep.put("query_geomean_ms", "ms", geomean(perQuery), fmt.Sprintf("(%d queries, %d samples each)", len(w.queries), n/len(w.queries)))
	rep.put("alloc_mb_per_op", "MB", float64(ph.mem.allocBytes)/(1<<20)/float64(n), fmt.Sprintf("(n=%d)", n))
	rep.put("retained_heap_mb", "MB", retainedHeapMB(), "(after forced GC)")
	runtime.KeepAlive(w)
}

// warmPass runs every query once, failing the set-up on a wrong answer.
func warmPass(w *libWorkload) error {
	for qi := range w.queries {
		r := w.op(context.Background(), nil, 0, qi)
		if r.err != nil {
			return fmt.Errorf("warm-up %s: %w", w.queries[qi].id, r.err)
		}
		if !r.ok {
			return fmt.Errorf("warm-up %s: answer differs from interp", w.queries[qi].id)
		}
	}
	return nil
}

func runFig10(cfg config, rep *report) error {
	w, setups, err := timedSetup(cfg, setupRepeats, func() (*libWorkload, error) { return setupFig10(cfg, cfg.traced) })
	if err != nil {
		return err
	}
	defer w.close()
	return runLibrary(cfg, rep, w, setups, fig10Probes)
}

func runFig5(cfg config, rep *report) error {
	w, setups, err := timedSetup(cfg, setupRepeats, func() (*libWorkload, error) { return setupFig5(cfg) })
	if err != nil {
		return err
	}
	return runLibrary(cfg, rep, w, setups, fig5Probes)
}

// runLibrary measures a library workload. Untraced, it runs one phase of
// cfg.seconds. Traced, it alternates untraced and traced passes for
// cfg.seconds, so both see the same host and heap, then runs the
// workload's probes and derives the per-layer metrics from the spans.
func runLibrary(cfg config, rep *report, w *libWorkload, setups []float64, probes func(*libWorkload, *tracer, *report)) error {
	ctx := context.Background()
	if !cfg.traced {
		reportEndToEnd(rep, w.loop(ctx, nil, cfg.seconds, rep), w, setups)
		return nil
	}
	tr := newTracer()
	var plain, traced phase
	for start := time.Now(); time.Since(start) < cfg.seconds; {
		plain.add(w.loop(ctx, nil, 0, rep))
		tr.on.Store(true)
		traced.add(w.loop(ctx, tr, 0, rep))
		tr.on.Store(false)
	}
	tr.on.Store(true)
	for qi := range w.queries {
		compilePhases(tr, w.queries[qi].xpath, qi)
	}
	probes(w, tr, rep)
	ss := indexSpans(tr.snapshot())

	_, medPlain := plain.latencies()
	_, medTraced := traced.latencies()
	geoPlain, geoTraced := geomean(medPlain), geomean(medTraced)
	fmt.Printf("tracing overhead: query_geomean_ms %.4f untraced vs %.4f traced; ops_per_s %.3f vs %.3f\n",
		geoPlain, geoTraced, plain.opsPerSecond(len(w.queries)), traced.opsPerSecond(len(w.queries)))
	rep.put("trace.overhead_pct", "%", 100*(geoTraced/geoPlain-1), "(query_geomean_ms, traced vs untraced passes)")

	putCompilePhases(rep, ss, len(w.queries))
	n := float64(len(traced.results))
	rep.put("exec.ms", "ms", ss.meanMS("exec"), fmt.Sprintf("(per op, n=%d)", len(ss.byName["exec"])))
	for _, k := range []string{"axis_steps", "tuples", "dup_dropped", "sorted", "memo_hits", "memo_misses"} {
		rep.put("exec."+k, "count", ss.meanAttr("exec", k), "(per op, Result.Stats)")
	}
	if w.sd != nil {
		hits, misses := ss.sumAttr("exec", "fix_hits"), ss.sumAttr("exec", "fix_misses")
		rep.put("store.fix_hits", "count", ss.meanAttr("exec", "fix_hits"), "(per op, Doc.BufferStats)")
		rep.put("store.fix_misses", "count", ss.meanAttr("exec", "fix_misses"), "(per op, Doc.BufferStats)")
		rep.put("store.evictions", "count", ss.meanAttr("exec", "evictions"), "(per op, Doc.BufferStats)")
		rep.put("store.hit_ratio", "ratio", ratio(hits, hits+misses), "(fix hits over fixes)")
	}
	var self []float64
	for _, s := range ss.byName["op"] {
		self = append(self, ms(ss.self(s)))
	}
	rep.put("op.self_ms", "ms", mean(self), "(op span minus compile, exec and verify: harness time)")
	rep.put("runtime.gc_cycles_per_op", "count", float64(traced.mem.gcCycles)/n, "(traced passes)")
	rep.put("runtime.gc_pause_ms", "ms", ratio(ms(traced.mem.gcPause), float64(traced.mem.gcCycles)), "(mean pause per GC cycle)")
	fmt.Println("trace:", ss.describe())
	return tr.writeJSONL(filepath.Join(cfg.dir, fmt.Sprintf("spans-seed%d.jsonl", cfg.seed)))
}

// compilePhases times the four compile phases of CompileWith with default
// Options by calling each module's entry point in turn.
func compilePhases(tr *tracer, expr string, qi int) {
	const reps = 5
	for i := 0; i < reps; i++ {
		probe := tr.begin("probe.compile", 0, 0)
		phase := func(name string, f func() error) bool {
			s := tr.begin(name, probe.id(), 0)
			s.set("q", float64(qi))
			err := f()
			s.end()
			return err == nil
		}
		var ast xpath.Expr
		var root sem.Expr
		var trans *translate.Result
		ok := phase("compile.parse", func() (err error) { ast, err = xpath.Parse(expr); return }) &&
			phase("compile.sem", func() (err error) {
				root, err = sem.Analyze(ast, &sem.Env{})
				if err == nil {
					root = sem.RewritePaths(root)
				}
				return
			}) &&
			phase("compile.translate", func() (err error) { trans, err = translate.Translate(root, translate.Improved()); return }) &&
			phase("compile.codegen", func() error { _, err := codegen.Compile(trans); return err })
		probe.end()
		if !ok {
			return // CompileWith in the measured loop reports the error
		}
	}
}

func putCompilePhases(rep *report, ss *spanSet, nq int) {
	for _, ph := range []string{"parse", "sem", "translate", "codegen"} {
		var xs []float64
		for _, v := range ss.medianByQuery("compile." + ph) {
			xs = append(xs, v*1000)
		}
		rep.put("compile."+ph+"_us", "us", mean(xs), fmt.Sprintf("(mean over %d queries of the per-query median)", nq))
	}
}

// probeRuns times reps executions of f under a parent span, each recorded
// as the named span with the query index attached.
func probeRuns(tr *tracer, name string, qi, reps int, f func(parent *open) error) error {
	for i := 0; i < reps; i++ {
		s := tr.begin(name, 0, 0)
		s.set("q", float64(qi))
		err := f(&s)
		s.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// natixProbe compiles and runs expr on doc with opt, recording
// <prefix>.op spans with <prefix>.exec children and the compile+execute
// time as "ce_ms", and checks the answer.
func natixProbe(tr *tracer, rep *report, q *libQuery, qi int, doc natix.Document, opt natix.Options, prefix string) {
	err := probeRuns(tr, prefix+".op", qi, 3, func(parent *open) error {
		t0 := time.Now()
		p, err := natix.CompileWith(q.xpath, opt)
		if err != nil {
			return err
		}
		e := tr.begin(prefix+".exec", parent.id(), 0)
		e.set("q", float64(qi))
		res, err := p.Run(natix.RootNode(doc), nil)
		e.end()
		parent.set("ce_ms", ms(time.Since(t0)))
		if err != nil {
			return err
		}
		probeQ := *q
		probeQ.doc = doc
		if !probeQ.check(res) {
			rep.wrong++
			fmt.Printf("wrong answer: %s probe %s\n", prefix, q.id)
		}
		return nil
	})
	rep.attempted++
	if err != nil {
		rep.failed++
		fmt.Printf("error: %s probe %s: %v\n", prefix, q.id, err)
	}
}

// interpProbe times the reference interpreter (the paper's main-memory
// baseline column), compile+evaluation as "ce_ms" and evaluation alone.
func interpProbe(tr *tracer, rep *report, q *libQuery, qi int) {
	err := probeRuns(tr, "interp.op", qi, 3, func(parent *open) error {
		t0 := time.Now()
		iq, err := interp.Compile(q.xpath, nil, interp.Options{DedupSteps: true})
		if err != nil {
			return err
		}
		e := tr.begin("interp.eval", parent.id(), 0)
		e.set("q", float64(qi))
		_, err = iq.Eval(dom.Node{Doc: q.mem, ID: q.mem.Root()}, nil)
		e.end()
		parent.set("ce_ms", ms(time.Since(t0)))
		return err
	})
	rep.attempted++
	if err != nil {
		rep.failed++
		fmt.Printf("error: interp probe %s: %v\n", q.id, err)
	}
}

// fig10Probes adds the natix-mem and interp columns of the paper's table
// and the store-vs-memory split of execute time.
func fig10Probes(w *libWorkload, tr *tracer, rep *report) {
	for qi := range w.queries {
		q := &w.queries[qi]
		natixProbe(tr, rep, q, qi, q.mem, w.opt, "mem")
		interpProbe(tr, rep, q, qi)
	}
	ss := indexSpans(tr.snapshot())
	// c+e excludes the benchmark's answer check, which only the natix
	// columns run.
	storeCE, storeX := ss.medianAttrByQuery("op", "ce_ms"), ss.medianByQuery("exec")
	memCE, memX := ss.medianAttrByQuery("mem.op", "ce_ms"), ss.medianByQuery("mem.exec")
	inCE, inX := ss.medianAttrByQuery("interp.op", "ce_ms"), ss.medianByQuery("interp.eval")

	fmt.Println("fig10 table (ms, median; c+e = compile+execute as in the paper, x = execute only)")
	fmt.Printf("fig10 %-4s %12s %12s %12s %12s %12s %12s\n", "row", "store c+e", "store x", "mem c+e", "mem x", "interp c+e", "interp x")
	var overhead, interpMS, rStore, rMem []float64
	for qi, q := range w.queries {
		fmt.Printf("fig10 %-4s %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f\n", q.id,
			storeCE[qi], storeX[qi], memCE[qi], memX[qi], inCE[qi], inX[qi])
		overhead = append(overhead, storeX[qi]-memX[qi])
		interpMS = append(interpMS, inCE[qi])
		rStore = append(rStore, storeCE[qi]/inCE[qi])
		rMem = append(rMem, memCE[qi]/inCE[qi])
	}
	sum := 0.0
	for _, x := range overhead {
		sum += x
	}
	rep.put("store.overhead_ms", "ms", sum, "(per pass: store execute minus in-memory execute, same plans)")
	rep.put("baseline.interp_ms", "ms", mean(interpMS), "(mean over rows of interp compile+eval)")
	rep.put("baseline.ratio_store", "ratio", geomean(rStore), "(geomean over rows of natix store / interp, compile+execute)")
	rep.put("baseline.ratio_mem", "ratio", geomean(rMem), "(geomean over rows of natix-mem / interp, compile+execute)")
}

// fig5Probes measures the exchange's effect per query (serial execute over
// parallel execute) and the interp baseline.
func fig5Probes(w *libWorkload, tr *tracer, rep *report) {
	serial := w.opt
	serial.Workers = 0
	for qi := range w.queries {
		q := &w.queries[qi]
		natixProbe(tr, rep, q, qi, q.doc, serial, "serial")
		natixProbe(tr, rep, q, qi, q.doc, w.opt, "parallel")
		interpProbe(tr, rep, q, qi)
	}
	ss := indexSpans(tr.snapshot())
	serX, parX := ss.medianByQuery("serial.exec"), ss.medianByQuery("parallel.exec")
	ce, inCE := ss.medianAttrByQuery("op", "ce_ms"), ss.medianAttrByQuery("interp.op", "ce_ms")
	var speed, interpMS, rMem []float64
	for qi, q := range w.queries {
		fmt.Printf("fig5 %s exchange: execute %.3f ms serial, %.3f ms at Workers=%d (%.2fx)\n",
			q.id, serX[qi], parX[qi], w.opt.Workers, serX[qi]/parX[qi])
		speed = append(speed, serX[qi]/parX[qi])
		interpMS = append(interpMS, inCE[qi])
		rMem = append(rMem, ce[qi]/inCE[qi])
	}
	rep.put("exchange.speedup", "ratio", geomean(speed), fmt.Sprintf("(geomean over queries, Workers=0 over Workers=%d)", w.opt.Workers))
	rep.put("baseline.interp_ms", "ms", mean(interpMS), "(mean over queries of interp compile+eval)")
	rep.put("baseline.ratio_mem", "ratio", geomean(rMem), "(geomean over queries of natix-mem / interp, compile+execute)")
}
