package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/bench"
	"natix/internal/catalog"
	"natix/internal/client"
	"natix/internal/cluster"
	"natix/internal/dom"
	"natix/internal/gen"
	"natix/internal/interp"
	"natix/internal/metrics"
	"natix/internal/plancache"
	"natix/internal/server"
	"natix/internal/store"
	"natix/internal/xval"
)

// serve-mix: served traffic through an in-process cluster coordinator in
// front of two shards, each a default-configured server over a catalog of
// store-backed documents with a plan cache. Everything runs in this
// process; the load comes from at most nproc sender goroutines sharing at
// most nproc client connections.
const (
	serveDocs     = 8
	serveElements = 5000
	serveTags     = 12
	serveShards   = 2
	// docTagSkew is the Zipf exponent of the documents' tag vocabulary and
	// querySkew that of the queries' tag draw: a few hot queries, a long
	// tail of rare ones. Both are those of the adaptive serving guard
	// (adaptive_guard_test.go), whose experiment this workload replaces.
	docTagSkew = 1.3
	querySkew  = 1.5
	// predBound is the @id bound of the node-returning predicate query.
	predBound = 500
	// wildcardShare is the share of requests scatter-gathered over "*".
	wildcardShare = 0.10

	// openLoopRate is the fixed open-loop arrival rate, about 20% of what
	// the system serves to two back-to-back clients (600-1350 requests/s
	// measured on a 2-core x86-64 VM); at 60% queueing amplified the
	// host's drift.
	openLoopRate = 150 // requests per second
	// sloLimit is the latency limit of slo_miss_ratio.
	sloLimit = 25 * time.Millisecond
	// writeEvery is the writer's period in the open-loop schedule.
	writeEvery = time.Second
	// serveSetupRepeats is the number of set-ups per run: they are cheap
	// and short, so their median needs more of them than a library's.
	serveSetupRepeats = 9
	// lateLimit is the generator lateness (p99) beyond which the run is
	// invalid: the schedule, not the system, fell behind.
	lateLimit = 10 * time.Millisecond
)

type qkind int

const (
	kCount qkind = iota // count of one tag: a number
	kPred               // node-returning predicate query: attribute values
	kRoot               // the root's @id, the value the writer changes

	allKinds qkind = -1
)

// spellings are the variant texts of each query kind; canonicalization
// maps each group to one plan-cache key. %[1]s is the tag, %[2]d the bound.
var spellings = [...][]string{
	kCount: {"count(//%[1]s)", "count(/descendant::%[1]s)", "count(/descendant-or-self::node()/child::%[1]s)"},
	kPred:  {"//%[1]s[@id < %[2]d]/@id", "/descendant::%[1]s[attribute::id < %[2]d]/attribute::id"},
	kRoot:  {"string(/xdoc/@id)", "string(/child::xdoc/attribute::id)"},
}

func queryText(k qkind, variant, tag int) string {
	s := spellings[k][variant%len(spellings[k])]
	if k == kRoot {
		return s
	}
	return fmt.Sprintf(s, fmt.Sprintf("t%d", tag), predBound)
}

// request is one scheduled operation.
type request struct {
	write bool
	kind  qkind
	tag   int
	doc   string // "*" for a wildcard scatter-gather
	query string
}

// sample is the outcome of one request.
type sample struct {
	req  request
	due  time.Time
	late time.Duration // generator hand-off lateness
	lat  time.Duration // from due (open loop) or send (closed loop) to answer
	ok   bool
	err  error
	// wrong is why the answer differs from the oracle.
	wrong string
	// traced reports the request ran while tracing was on.
	traced bool
	// Envelope data for the per-layer metrics.
	coalesced bool
	fanout    int
	shardMax  time.Duration
	stats     server.QueryStats
	// Writer data.
	commit time.Duration
	warmed int
	warmUS int64
}

// serveOracle holds the expected answers per document and generation.
type serveOracle struct {
	docs   []string // sorted: the global document order
	counts map[string][]float64
	preds  map[string][][]string
	mu     sync.Mutex
	root   map[string]map[uint64]string // document -> generation -> @id
	acked  map[string]uint64            // document -> generation of its last acknowledged reload
}

func (o *serveOracle) rootValue(doc string, gen uint64) (string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.root[doc][gen]
	return v, ok
}

func (o *serveOracle) expectRoot(doc string, gen uint64, v string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.root[doc][gen] = v
}

// acknowledge records that a reload of doc to gen was acknowledged: every
// read sent from now on must report gen or a newer generation.
func (o *serveOracle) acknowledge(doc string, gen uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.acked[doc] = gen
}

func (o *serveOracle) ackedGen(doc string) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.acked[doc]
}

// floor is the acknowledged generation of each document a request names,
// taken just before it is sent.
func (o *serveOracle) floor(doc string) map[string]uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if doc != "*" {
		return map[string]uint64{doc: o.acked[doc]}
	}
	f := make(map[string]uint64, len(o.acked))
	for d, g := range o.acked {
		f[d] = g
	}
	return f
}

// checkResult compares one document's result with the oracle.
func (o *serveOracle) checkResult(k qkind, tag int, doc string, gen uint64, r *server.QueryResult) bool {
	switch k {
	case kCount:
		return r.Kind == "number" && r.Number != nil && *r.Number == o.counts[doc][tag]
	case kPred:
		want := o.preds[doc][tag]
		if r.Kind != "node-set" || r.Count != len(want) || len(r.Nodes) != len(want) {
			return false
		}
		for i, n := range r.Nodes {
			if n.Kind != "attribute" || n.Name != "id" || n.Value != want[i] {
				return false
			}
		}
		return true
	default:
		want, known := o.rootValue(doc, gen)
		return known && r.Kind == "string" && r.String != nil && *r.String == want
	}
}

// check validates a coordinator answer and returns why it is wrong, or ""
// when it is right: single-document answers against their generation's
// values, wildcard answers per document in sorted document order, with
// node-sets concatenated in that order. No document may report a
// generation older than floor, the acknowledged ones when it was sent.
func (o *serveOracle) check(rq request, resp *cluster.QueryResponse, floor map[string]uint64) string {
	if rq.doc != "*" {
		switch {
		case resp.Document != rq.doc || resp.Result == nil:
			return fmt.Sprintf("answer for document %q", resp.Document)
		case resp.Generation < floor[rq.doc]:
			return fmt.Sprintf("stale: generation %d, reload to %d acknowledged before the read was sent", resp.Generation, floor[rq.doc])
		case !o.checkResult(rq.kind, rq.tag, rq.doc, resp.Generation, resp.Result):
			return fmt.Sprintf("value differs from interp at generation %d", resp.Generation)
		}
		return ""
	}
	if len(resp.PerDocument) != len(o.docs) || resp.Partial {
		return fmt.Sprintf("%d of %d documents, partial=%v", len(resp.PerDocument), len(o.docs), resp.Partial)
	}
	var nodes []server.QueryNode
	for i, d := range resp.PerDocument {
		switch {
		case d.Document != o.docs[i]:
			return fmt.Sprintf("document %q at position %d, want %q", d.Document, i, o.docs[i])
		case d.Generation < floor[d.Document]:
			return fmt.Sprintf("stale: %s generation %d, reload to %d acknowledged before the read was sent", d.Document, d.Generation, floor[d.Document])
		case !o.checkResult(rq.kind, rq.tag, d.Document, d.Generation, &d.Result):
			return fmt.Sprintf("%s value differs from interp at generation %d", d.Document, d.Generation)
		}
		nodes = append(nodes, d.Result.Nodes...)
	}
	if rq.kind != kPred {
		if resp.Result != nil {
			return "merged result for a non-node-set query"
		}
		return ""
	}
	if resp.Result == nil || resp.Result.Count != len(nodes) || len(resp.Result.Nodes) != len(nodes) {
		return "merged node-set is not the per-document concatenation"
	}
	for i := range nodes {
		if resp.Result.Nodes[i] != nodes[i] {
			return "merged node-set is not the per-document concatenation"
		}
	}
	return ""
}

// buildOracle evaluates every query kind on every document with the
// reference interpreter.
func buildOracle(mems map[string]*dom.MemDoc, gens map[string]uint64) (*serveOracle, error) {
	o := &serveOracle{counts: map[string][]float64{}, preds: map[string][][]string{},
		root: map[string]map[uint64]string{}, acked: map[string]uint64{}}
	eval := func(mem *dom.MemDoc, expr string) (xval.Value, error) {
		q, err := interp.Compile(expr, nil, interp.Options{DedupSteps: true})
		if err != nil {
			return xval.Value{}, err
		}
		return q.Eval(dom.Node{Doc: mem, ID: mem.Root()}, nil)
	}
	for name, mem := range mems {
		o.docs = append(o.docs, name)
		for tag := 0; tag < serveTags; tag++ {
			v, err := eval(mem, queryText(kCount, 0, tag))
			if err != nil {
				return nil, err
			}
			o.counts[name] = append(o.counts[name], v.N)
			v, err = eval(mem, queryText(kPred, 0, tag))
			if err != nil {
				return nil, err
			}
			var vals []string
			for _, n := range v.Nodes {
				vals = append(vals, n.Value())
			}
			o.preds[name] = append(o.preds[name], vals)
		}
		v, err := eval(mem, queryText(kRoot, 0, 0))
		if err != nil {
			return nil, err
		}
		o.root[name] = map[uint64]string{gens[name]: v.S}
		o.acked[name] = gens[name]
	}
	sort.Strings(o.docs)
	return o, nil
}

// httpService is one in-process HTTP listener.
type httpService struct {
	url    string
	hs     *http.Server
	served chan error
}

func listen(h http.Handler) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *httpService) stop(ctx context.Context) {
	s.hs.Shutdown(ctx)
	<-s.served
}

type shard struct {
	cat   *catalog.Catalog
	cache *plancache.Cache
	svc   *server.Server
	http  *httpService
}

// serveEnv is one set-up of the served system and its load client.
type serveEnv struct {
	dir    string
	paths  map[string]string // document -> served store file
	shards []*shard
	coord  *cluster.Coordinator
	front  *httpService
	httpc  *http.Client
	oracle *serveOracle
	tr     *tracer

	nextOp atomic.Int64 // operation IDs shared by a request's spans

	writeMu  sync.Mutex
	writes   int
	writeTag string
}

// Request headers that let the benchmark's middleware parent its spans
// under the client operation that caused them.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// captureWriter keeps a copy of the response body for the middleware.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// traceHandler records a span around each /query and /reload handled by h,
// with the envelope's elapsed_us attached.
func traceHandler(tr *tracer, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := layer + "." + strings.TrimPrefix(r.URL.Path, "/")
		if !tr.on.Load() || (r.URL.Path != "/query" && r.URL.Path != "/reload") {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		s := tr.begin(name, parent, op)
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(cw, r)
		s.stop()
		var env struct {
			ElapsedUS int64 `json:"elapsed_us"`
		}
		if json.Unmarshal(cw.body.Bytes(), &env) == nil {
			s.set("elapsed_us", float64(env.ElapsedUS))
		}
		s.set("status", float64(cw.status))
		s.end()
	})
}

func senders() int { return runtime.NumCPU() }

// setupServe generates the corpus, writes the store files, starts the
// shards and the coordinator, computes the oracle and warms every plan.
func setupServe(cfg config, tr *tracer) (*serveEnv, error) {
	e := &serveEnv{dir: filepath.Join(cfg.dir, "serve"), paths: map[string]string{}, tr: tr,
		writeTag: fmt.Sprintf("w%d-", cfg.seed)}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	mems := map[string]*dom.MemDoc{}
	gens := map[string]uint64{}
	placement := make([][]string, serveShards)
	for i := 0; i < serveDocs; i++ {
		name := fmt.Sprintf("doc%d", i)
		mems[name] = gen.Generate(gen.Params{Elements: serveElements, Fanout: bench.FanoutFor(serveElements),
			Tags: serveTags, Skew: docTagSkew, Seed: cfg.seed*1000 + int64(i)})
		e.paths[name] = filepath.Join(e.dir, name+".natix")
		if err := store.Write(e.paths[name], mems[name]); err != nil {
			return nil, err
		}
		placement[i%serveShards] = append(placement[i%serveShards], name)
	}

	spec := cluster.TopologySpec{Generation: 1}
	for i, docs := range placement {
		sh := &shard{cat: catalog.New(), cache: plancache.New(256, 16<<20)} // natix-serve's default budgets
		e.shards = append(e.shards, sh)
		for _, name := range docs {
			if err := sh.cat.OpenStore(name, e.paths[name], store.Options{}); err != nil {
				e.close()
				return nil, err
			}
			g, err := sh.cat.Generation(name)
			if err != nil {
				e.close()
				return nil, err
			}
			gens[name] = g
		}
		sh.svc = server.New(server.Config{Catalog: sh.cat, Cache: sh.cache})
		var h http.Handler = sh.svc.Handler()
		if tr != nil {
			h = traceHandler(tr, "shard", h)
		}
		var err error
		if sh.http, err = listen(h); err != nil {
			e.close()
			return nil, err
		}
		spec.Shards = append(spec.Shards, cluster.ShardSpec{ID: fmt.Sprintf("s%d", i), Endpoints: []string{sh.http.url}})
	}
	topo, err := cluster.NewTopology(spec)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.coord, err = cluster.New(cluster.Config{Topology: topo}); err != nil {
		e.close()
		return nil, err
	}
	var h http.Handler = e.coord.Handler()
	if tr != nil {
		h = traceHandler(tr, "coord", h)
	}
	if e.front, err = listen(h); err != nil {
		e.close()
		return nil, err
	}
	pool := client.Pool{MaxIdleConnsPerHost: senders(), MaxConnsPerHost: senders()}
	e.httpc = &http.Client{Transport: pool.Transport()}
	e.coord.ProbeNow(context.Background())

	if e.oracle, err = buildOracle(mems, gens); err != nil {
		e.close()
		return nil, err
	}
	// Warm-up: every (document, kind, tag) once, so plans are cached and
	// the workload profile the shards warm from after a reload is filled.
	for _, doc := range e.oracle.docs {
		for k := kCount; k <= kRoot; k++ {
			for tag := 0; tag < serveTags; tag++ {
				s := e.do(request{kind: k, tag: tag, doc: doc, query: queryText(k, 0, tag)}, time.Now())
				if s.err != nil || !s.ok {
					e.close()
					return nil, fmt.Errorf("warm-up %s on %s: %v (answer ok=%v)", s.req.query, doc, s.err, s.ok)
				}
			}
		}
	}
	return e, nil
}

// close stops the coordinator, the shards and their listeners and waits
// for them. Shutdown errors are dropped: the run has already measured
// everything it reports.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.front != nil {
		e.coord.Shutdown(ctx)
		e.front.stop(ctx)
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, sh := range e.shards {
		if sh.svc != nil {
			sh.svc.Shutdown(ctx)
		}
		if sh.http != nil {
			sh.http.stop(ctx)
		}
		sh.cat.CloseAll()
	}
	if e.httpc != nil {
		e.httpc.CloseIdleConnections()
	}
}

// post sends one request to the coordinator and decodes a 200 answer.
func (e *serveEnv) post(ctx context.Context, path string, body any, op int64, parent int64, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.front.url+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
	}
	resp, err := e.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// do performs one request; latency counts from due.
func (e *serveEnv) do(rq request, due time.Time) sample {
	s := sample{req: rq, due: due}
	op := e.nextOp.Add(1)
	if rq.write {
		e.write(&s, op)
		return s
	}
	sp := e.tr.begin("op", 0, op)
	s.traced = sp.recording()
	sp.set("wildcard", boolf(rq.doc == "*"))
	var resp cluster.QueryResponse
	floor := e.oracle.floor(rq.doc)
	s.err = e.post(context.Background(), "/query", cluster.QueryRequest{QueryRequest: server.QueryRequest{Query: rq.query, Document: rq.doc}}, op, sp.id(), &resp)
	s.lat = time.Since(due)
	if s.err == nil {
		s.coalesced = resp.Coalesced
		for _, t := range resp.Shards {
			s.fanout += t.Calls
			s.shardMax = max(s.shardMax, time.Duration(t.MaxUS)*time.Microsecond)
		}
		sp.set("shard_max_us", us(s.shardMax))
		s.stats = resp.Stats
		s.wrong = e.oracle.check(rq, &resp, floor)
		s.ok = s.wrong == ""
	}
	sp.end()
	return s
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// write changes the root @id of one document: copy the served store file,
// update the copy transactionally, rename it over the served file, reload
// through the coordinator, then check that a read spelled as the workload
// spells it sees the new value.
// Latency counts from the start of Commit to the acknowledged reload.
func (e *serveEnv) write(s *sample, op int64) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	doc := e.oracle.docs[e.writes%len(e.oracle.docs)]
	s.req.doc = doc
	e.writes++
	value := e.writeTag + strconv.Itoa(e.writes)
	sp := e.tr.begin("write", 0, op)
	defer sp.end()

	served := e.paths[doc]
	next := served + ".next"
	if s.err = copyFile(served, next); s.err != nil {
		return
	}
	u, err := store.OpenUpdatable(next, store.Options{})
	if err != nil {
		s.err = err
		return
	}
	d := u.Doc()
	attr := d.FirstAttr(d.FirstChild(d.Root()))
	if d.LocalName(attr) != "id" {
		u.Close()
		s.err = fmt.Errorf("%s: the root element has no leading @id", doc)
		return
	}
	tx := u.Begin()
	if s.err = tx.SetValue(attr, value); s.err != nil {
		u.Close()
		return
	}
	newGen := e.oracle.ackedGen(doc) + 1
	e.oracle.expectRoot(doc, newGen, value)

	t0 := time.Now()
	c := e.tr.begin("store.commit", sp.id(), op)
	err = tx.Commit()
	c.end()
	s.commit = time.Since(t0)
	if cerr := u.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.err = err
		return
	}
	if s.err = os.Rename(next, served); s.err != nil {
		return
	}
	r := e.tr.begin("reload", sp.id(), op)
	var rr struct {
		Documents []cluster.ReloadDocStatus `json:"documents"`
	}
	s.err = e.post(context.Background(), "/reload?document="+doc, struct{}{}, op, r.id(), &rr)
	s.lat = time.Since(t0)
	r.end()
	if s.err != nil {
		return
	}
	if len(rr.Documents) != 1 || rr.Documents[0].Error != "" || rr.Documents[0].Generation != newGen {
		s.err = fmt.Errorf("reload %s: unexpected answer %+v (want generation %d)", doc, rr.Documents, newGen)
		return
	}
	e.oracle.acknowledge(doc, newGen)
	s.warmed, s.warmUS = rr.Documents[0].Warmed, rr.Documents[0].WarmCompileUS

	v := e.tr.begin("verify", sp.id(), op)
	rq := request{kind: kRoot, doc: doc, query: queryText(kRoot, e.writes, 0)}
	floor := e.oracle.floor(doc)
	var resp cluster.QueryResponse
	s.err = e.post(context.Background(), "/query", cluster.QueryRequest{QueryRequest: server.QueryRequest{Query: rq.query, Document: doc}}, op, v.id(), &resp)
	v.end()
	if s.err != nil {
		return
	}
	s.wrong = e.oracle.check(rq, &resp, floor)
	s.ok = s.wrong == ""
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// mix draws n read requests: Zipf tags, uniform documents and spellings,
// wildcardShare of them scatter-gathered over "*".
func mix(rng *rand.Rand, docs []string, n int) []request {
	zipf := rand.NewZipf(rng, querySkew, 1, serveTags-1)
	out := make([]request, n)
	for i := range out {
		rq := request{tag: int(zipf.Uint64()), doc: docs[rng.Intn(len(docs))]}
		// The kind split is a chosen, unmeasured mix: mostly counts, the
		// only kind of the adaptive serving guard; node-returning reads
		// for encoding and merging node-sets; a few root reads, the only
		// kind that observes writes.
		switch p := rng.Float64(); {
		case p < 0.55:
			rq.kind = kCount
		case p < 0.90:
			rq.kind = kPred
		default:
			rq.kind = kRoot
		}
		if rng.Float64() < wildcardShare {
			rq.doc = "*"
		}
		rq.query = queryText(rq.kind, rng.Intn(len(spellings[rq.kind])), rq.tag)
		out[i] = rq
	}
	return out
}

// A run is a sequence of rounds: an open-loop second with one write, then
// a closed-loop slice. The two phases alternate so that each samples the
// host across the whole run, not one stretch of it.
const (
	roundOpen   = time.Second
	roundClosed = 700 * time.Millisecond
)

// round is the outcome of one round.
type round struct {
	open, closed  []sample
	closedElapsed time.Duration
}

// rounds runs rounds for d; before, if not nil, is called as each starts.
// The closed-loop slices walk closedReqs in turn.
func (e *serveEnv) rounds(d time.Duration, rng *rand.Rand, closedReqs []request, rep *report, before func(i int)) []round {
	out := make([]round, max(1, int(d/(roundOpen+roundClosed))))
	next := 0
	for i := range out {
		if before != nil {
			before(i)
		}
		out[i].open = e.openLoop(schedule(rng, e.oracle.docs, roundOpen), rep)
		out[i].closed, out[i].closedElapsed = e.closedLoop(closedReqs, &next, roundClosed, rep)
	}
	return out
}

// openLoop sends reqs at openLoopRate from one generator goroutine through
// the sender pool; each request is timed from when it was due. It returns
// when every request has been answered.
func (e *serveEnv) openLoop(reqs []request, rep *report) []sample {
	out := make([]sample, len(reqs))
	type task struct {
		i    int
		due  time.Time
		late time.Duration
	}
	// Sized to the number of sends: the generator never blocks, so a slow
	// system shows as latency from due, never as a slower schedule.
	ch := make(chan task, len(reqs))
	var wg sync.WaitGroup
	for s := 0; s < senders(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				out[t.i] = e.do(reqs[t.i], t.due)
				out[t.i].late = t.late
			}
		}()
	}
	start := time.Now()
	interval := time.Second / openLoopRate
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ch <- task{i, due, time.Since(due)}
	}
	close(ch)
	wg.Wait()
	for _, s := range out {
		countSample(rep, s)
	}
	return out
}

// closedLoop runs the read mix back to back from one client until d has
// passed, taking requests from reqs in turn at *next, and returns the
// samples and the time until the last answer. One client, as on the
// library workloads: nproc clients keep every core busy, and their rate
// then measures the host's other tenants more than the system.
func (e *serveEnv) closedLoop(reqs []request, next *int, d time.Duration, rep *report) ([]sample, time.Duration) {
	var out []sample
	start := time.Now()
	for time.Since(start) < d {
		out = append(out, e.do(reqs[*next%len(reqs)], time.Now()))
		*next++
	}
	elapsed := time.Since(start)
	for _, s := range out {
		countSample(rep, s)
	}
	return out, elapsed
}

// perRound is the median over rounds of the p-quantile of the latencies of
// the successful single-document open-loop reads of kind k (or every kind,
// for k < 0) in each, with the fewest samples beyond the quantile in any
// round.
func perRound(rs []round, p float64, k qkind) (v float64, beyond int) {
	var qs []float64
	beyond = -1
	for _, r := range rs {
		var g []float64
		for _, s := range r.open {
			if s.req.write || s.req.doc == "*" || s.err != nil || (k >= 0 && s.req.kind != k) {
				continue
			}
			g = append(g, ms(s.lat))
		}
		if len(g) == 0 {
			continue
		}
		q, b := percentile(g, p)
		qs = append(qs, q)
		if beyond < 0 || b < beyond {
			beyond = b
		}
	}
	return median(qs), beyond
}

// closedRate is the median over rounds of the correct answers per second
// of each closed-loop slice.
func closedRate(rs []round) float64 {
	var rates []float64
	for _, r := range rs {
		ok := 0
		for _, s := range r.closed {
			if s.ok {
				ok++
			}
		}
		rates = append(rates, float64(ok)/r.closedElapsed.Seconds())
	}
	return median(rates)
}

func countSample(rep *report, s sample) {
	rep.attempted++
	switch {
	case s.err != nil:
		rep.failed++
		fmt.Printf("error: %s on %s: %v\n", s.req.query, s.req.doc, s.err)
	case !s.ok:
		rep.wrong++
		fmt.Printf("wrong answer: write=%v %s on %s: %s\n", s.req.write, s.req.query, s.req.doc, s.wrong)
	}
}

// schedule draws the open-loop requests for d: the read mix with a write
// every writeEvery.
func schedule(rng *rand.Rand, docs []string, d time.Duration) []request {
	n := int(openLoopRate * d.Seconds())
	reqs := mix(rng, docs, n)
	every := int(openLoopRate * writeEvery.Seconds())
	for i := every / 2; i < n; i += every {
		reqs[i] = request{write: true, query: "write"}
	}
	return reqs
}

// openStats summarises an open-loop phase.
type openStats struct {
	single, scatter, writes, commits []float64
	sloMiss, reads                   int
	late                             []float64
}

func summarize(samples []sample) openStats {
	var st openStats
	for _, s := range samples {
		st.late = append(st.late, ms(s.late))
		if s.req.write {
			if s.err == nil {
				st.writes = append(st.writes, ms(s.lat))
				st.commits = append(st.commits, ms(s.commit))
			}
			continue
		}
		st.reads++
		if s.err != nil || !s.ok || s.lat > sloLimit {
			st.sloMiss++
		}
		if s.err != nil {
			continue
		}
		if s.req.doc == "*" {
			st.scatter = append(st.scatter, ms(s.lat))
		} else {
			st.single = append(st.single, ms(s.lat))
		}
	}
	return st
}

// validate reports the open-loop generator's lateness and marks the run
// invalid when the schedule itself fell behind.
func (st openStats) validate(rep *report) {
	p99, _ := percentile(st.late, 0.99)
	mx, _ := percentile(st.late, 1)
	fmt.Printf("run-validity: open loop rate=%d/s senders=%d latency_limit=%v generator lateness p99=%.3fms max=%.3fms\n",
		openLoopRate, senders(), sloLimit, p99, mx)
	if p99 > ms(lateLimit) {
		rep.markInvalid("open-loop generator fell behind: p99 lateness %.3fms > %v", p99, lateLimit)
	}
}

// putServeShared prints the serve-mix metrics that are per-layer in
// BENCHMARK.json because the library workloads have no counterpart, and
// the writer's commit time.
func putServeShared(rep *report, st openStats) {
	rep.put("scatter_p50_ms", "ms", median(st.scatter), fmt.Sprintf("(wildcard, n=%d)", len(st.scatter)))
	v, beyond := percentile(st.scatter, 0.90)
	rep.put("scatter_tail_ms", "ms", v, fmt.Sprintf("(wildcard p90, n=%d, %d beyond)", len(st.scatter), beyond))
	rep.put("write_p50_ms", "ms", median(st.writes), fmt.Sprintf("(Commit start to acknowledged reload, n=%d)", len(st.writes)))
	rep.put("slo_miss_ratio", "ratio", ratio(float64(st.sloMiss), float64(st.reads)),
		fmt.Sprintf("(failed, refused, wrong or over %v, n=%d)", sloLimit, st.reads))
	rep.put("store.commit_ms", "ms", median(st.commits), fmt.Sprintf("(n=%d)", len(st.commits)))
}

func runServeMix(cfg config, rep *report) error {
	metrics.Enable() // natix-serve's default
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	e, setups, err := timedSetup(cfg, serveSetupRepeats, func() (*serveEnv, error) { return setupServe(cfg, tr) })
	if err != nil {
		return err
	}
	defer e.close()

	rng := rand.New(rand.NewSource(cfg.seed))
	closedReqs := mix(rng, e.oracle.docs, 4096)
	if cfg.traced {
		return e.traceLayers(cfg, rep, tr, rng, closedReqs)
	}
	e.measure(cfg, rep, setups, rng, closedReqs)
	return nil
}

// measure runs the rounds untraced and reports the end-to-end metrics.
func (e *serveEnv) measure(cfg config, rep *report, setups []float64, rng *rand.Rand, closedReqs []request) {
	mw := startMemWindow()
	rs := e.rounds(cfg.seconds, rng, closedReqs, rep, nil)
	md := mw.stop()
	open, ops := openSamples(rs)
	st := summarize(open)
	st.validate(rep)
	rep.put("setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups)))
	rep.put("ops_per_s", "1/s", closedRate(rs), fmt.Sprintf("(closed loop, one client, median over %d slices of %v, n=%d)",
		len(rs), roundClosed, ops-len(open)))
	p50, _ := perRound(rs, 0.5, allKinds)
	p90, beyond := perRound(rs, 0.90, allKinds)
	var kindMedians []float64
	for k := kCount; k <= kRoot; k++ {
		m, _ := perRound(rs, 0.5, k)
		kindMedians = append(kindMedians, m)
	}
	rep.put("latency_p50_ms", "ms", p50, fmt.Sprintf("(single-document, open loop, median over %d seconds, n=%d)", len(rs), len(st.single)))
	rep.put("latency_tail_ms", "ms", p90, fmt.Sprintf("(single-document p90, median over %d seconds, >= %d beyond in each, n=%d)", len(rs), beyond, len(st.single)))
	if beyond < 10 {
		rep.markInvalid("latency_tail_ms: a second has only %d samples beyond p90", beyond)
	}
	rep.put("query_geomean_ms", "ms", geomean(kindMedians), fmt.Sprintf("(geomean over %d single-document query kinds of the per-second median)", len(kindMedians)))
	rep.put("alloc_mb_per_op", "MB", float64(md.allocBytes)/(1<<20)/float64(ops), fmt.Sprintf("(open and closed loop, n=%d)", ops))
	e.settle(closedReqs, rep)
	rep.put("retained_heap_mb", "MB", retainedHeapMB(), fmt.Sprintf("(after forced GC, following %d reads from %d clients)", settleReads, senders()))
	putServeShared(rep, st)
}

// settleReads is the number of untimed reads settle sends.
const settleReads = 1024

// settle sends settleReads reads of the mix from nproc clients at once.
// A catalog keeps one pooled store handle, each with its own buffer, per
// concurrent reader a document generation has seen, and every write
// replaces a generation; without this the retained heap would count how
// many documents happened to see two concurrent reads since their last
// reload. The answers are checked like any others.
func (e *serveEnv) settle(reqs []request, rep *report) {
	out := make([]sample, min(settleReads, len(reqs)))
	var wg sync.WaitGroup
	for c := 0; c < senders(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(out); i += senders() {
				out[i] = e.do(reqs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	for _, s := range out {
		countSample(rep, s)
	}
}

// openSamples returns the open-loop samples of every round and the number
// of operations of the rounds, open and closed loop.
func openSamples(rs []round) ([]sample, int) {
	var open []sample
	ops := 0
	for _, r := range rs {
		open = append(open, r.open...)
		ops += len(r.open) + len(r.closed)
	}
	return open, ops
}

// traceLayers runs the rounds with tracing on in every other round, so
// traced and untraced requests see the same host and load, and derives the
// per-layer metrics.
func (e *serveEnv) traceLayers(cfg config, rep *report, tr *tracer, rng *rand.Rand, closedReqs []request) error {
	before := e.snapshotCounters()
	mw := startMemWindow()
	rs := e.rounds(cfg.seconds, rng, closedReqs, rep, func(i int) { tr.on.Store(i%2 == 1) })
	tr.on.Store(true)
	md := mw.stop()
	after := e.snapshotCounters()
	open, _ := openSamples(rs)
	var plain, traced []sample
	for _, s := range open {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	st := summarize(open)
	st.validate(rep)
	plainSt, tracedSt := summarize(plain), summarize(traced)
	nq := 0
	for k := kCount; k <= kRoot; k++ {
		for v := range spellings[k] {
			compilePhases(tr, queryText(k, v, 0), nq)
			nq++
		}
	}
	ss := indexSpans(tr.snapshot())

	fmt.Printf("tracing overhead: open-loop single-document latency p50 %.4f ms untraced (n=%d) vs %.4f ms traced (n=%d)\n",
		median(plainSt.single), len(plainSt.single), median(tracedSt.single), len(tracedSt.single))
	rep.put("trace.overhead_pct", "%", 100*(median(tracedSt.single)/median(plainSt.single)-1), "(open-loop single-document p50, traced vs untraced seconds)")
	putServeShared(rep, st)
	putCompilePhases(rep, ss, nq)

	var all []sample
	for _, r := range rs {
		all = append(append(all, r.open...), r.closed...)
	}
	var reads, coalesced, fanout float64
	var stats server.QueryStats
	for _, s := range all {
		if s.req.write || s.err != nil {
			continue
		}
		reads++
		coalesced += boolf(s.coalesced)
		fanout += float64(s.fanout)
		stats.AxisSteps += s.stats.AxisSteps
		stats.Tuples += s.stats.Tuples
		stats.DupDropped += s.stats.DupDropped
		stats.MemoHits += s.stats.MemoHits
		stats.MemoMisses += s.stats.MemoMisses
	}
	rep.put("exec.axis_steps", "count", ratio(float64(stats.AxisSteps), reads), "(per request, envelope stats)")
	rep.put("exec.tuples", "count", ratio(float64(stats.Tuples), reads), "(per request, envelope stats)")
	rep.put("exec.dup_dropped", "count", ratio(float64(stats.DupDropped), reads), "(per request, envelope stats)")
	rep.put("exec.memo_hits", "count", ratio(float64(stats.MemoHits), reads), "(per request, envelope stats)")
	rep.put("exec.memo_misses", "count", ratio(float64(stats.MemoMisses), reads), "(per request, envelope stats)")
	rep.put("coord.coalesced_ratio", "ratio", ratio(coalesced, reads), "(answers joined to an in-flight fan-out)")
	rep.put("coord.fanout", "count", ratio(fanout, reads), "(shard calls per request)")

	// Client op -> coordinator handler -> slowest shard call.
	handlerOf := map[int64]span{}
	for _, s := range ss.byName["coord.query"] {
		handlerOf[s.Parent] = s
	}
	var clientOver, coordSelf []float64
	for _, op := range ss.byName["op"] {
		h, ok := handlerOf[op.ID]
		if !ok {
			continue
		}
		clientOver = append(clientOver, ms(op.dur()-h.dur()))
		coordSelf = append(coordSelf, ms(h.dur())-op.Attrs["shard_max_us"]/1000)
	}
	rep.put("coord.handler_ms", "ms", ss.meanMS("coord.query"), fmt.Sprintf("(n=%d)", len(ss.byName["coord.query"])))
	rep.put("coord.self_ms", "ms", mean(coordSelf), "(coordinator handler minus its slowest shard call)")
	rep.put("net.client_overhead_ms", "ms", mean(clientOver), "(client round trip minus coordinator handler)")

	var unreported []float64
	for _, s := range ss.byName["shard.query"] {
		unreported = append(unreported, ms(s.dur())-s.Attrs["elapsed_us"]/1000)
	}
	rep.put("shard.handler_ms", "ms", ss.meanMS("shard.query"), fmt.Sprintf("(n=%d)", len(ss.byName["shard.query"])))
	rep.put("shard.elapsed_ms", "ms", ss.meanAttr("shard.query", "elapsed_us")/1000, "(envelope elapsed_us)")
	rep.put("shard.unreported_ms", "ms", mean(unreported), "(shard handler minus envelope elapsed_us)")

	d := after.sub(before)
	rep.put("server.queue_ms", "ms", 1000*ratio(d.queueSum, d.queueCount), "(natix_serve_queue_seconds mean)")
	rep.put("server.coalesced_ratio", "ratio", ratio(d.coalesced, d.executed+d.coalesced), "(Server.Counters)")
	rep.put("server.refused", "count", d.rejected, "(natix_serve_rejected_total)")
	rep.put("plancache.hit_ratio", "ratio", ratio(d.hits, d.hits+d.misses), "(Cache.Stats)")
	rep.put("plancache.normalized_hit_ratio", "ratio", ratio(d.normHits, d.hits+d.misses), "(normalized hits over lookups)")
	rep.put("plancache.evictions", "count", d.evictions, "(Cache.Stats)")
	rep.put("plancache.invalidations", "count", d.invalidations, "(Cache.Stats)")
	rep.put("catalog.store_handles_opened", "count", d.handles, "(natix_catalog_store_handles_total)")

	var warmed, warmUS []float64
	for _, s := range open {
		if s.req.write && s.err == nil {
			warmed = append(warmed, float64(s.warmed))
			warmUS = append(warmUS, float64(s.warmUS))
		}
	}
	rep.put("catalog.reload_ms", "ms", ss.meanMS("reload"), fmt.Sprintf("(POST /reload round trip, n=%d)", len(ss.byName["reload"])))
	rep.put("catalog.warmed_plans", "count", mean(warmed), "(per reload, envelope)")
	rep.put("catalog.warm_compile_us", "us", mean(warmUS), "(per reload, envelope)")

	n := float64(len(all))
	rep.put("runtime.gc_cycles_per_op", "count", float64(md.gcCycles)/n, "(all rounds, traced and untraced)")
	rep.put("runtime.gc_pause_ms", "ms", ratio(ms(md.gcPause), float64(md.gcCycles)), "(mean pause per GC cycle)")
	fmt.Println("trace:", ss.describe())
	return tr.writeJSONL(filepath.Join(cfg.dir, fmt.Sprintf("spans-seed%d.jsonl", cfg.seed)))
}

// counters is a snapshot of the serving layers' own counters.
type counters struct {
	queueSum, queueCount, rejected, handles          float64
	executed, coalesced                              float64
	hits, misses, normHits, evictions, invalidations float64
}

func (a counters) sub(b counters) counters {
	return counters{
		queueSum: a.queueSum - b.queueSum, queueCount: a.queueCount - b.queueCount,
		rejected: a.rejected - b.rejected, handles: a.handles - b.handles,
		executed: a.executed - b.executed, coalesced: a.coalesced - b.coalesced,
		hits: a.hits - b.hits, misses: a.misses - b.misses, normHits: a.normHits - b.normHits,
		evictions: a.evictions - b.evictions, invalidations: a.invalidations - b.invalidations,
	}
}

// snapshotCounters reads Server.Counters and Cache.Stats of every shard and
// the process metrics a shard serves at /metrics.
func (e *serveEnv) snapshotCounters() counters {
	var c counters
	for _, sh := range e.shards {
		sc := sh.svc.Counters()
		c.executed += float64(sc.Executed)
		c.coalesced += float64(sc.Coalesced)
		cs := sh.cache.Stats()
		c.hits += float64(cs.Hits)
		c.misses += float64(cs.Misses)
		c.normHits += float64(cs.NormalizedHits)
		c.evictions += float64(cs.Evictions)
		c.invalidations += float64(cs.Invalidations)
	}
	resp, err := e.httpc.Get(e.shards[0].http.url + "/metrics")
	if err != nil {
		return c
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "natix_serve_queue_seconds_sum":
			c.queueSum = v
		case "natix_serve_queue_seconds_count":
			c.queueCount = v
		case "natix_serve_rejected_total":
			c.rejected = v
		case "natix_catalog_store_handles_total":
			c.handles = v
		}
	}
	return c
}
