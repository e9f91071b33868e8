package cluster

// Coordinator-level adaptive serving: singleflight coalescing of identical
// in-flight fan-outs, the /reload fan-out with per-shard warm aggregation,
// and cache pre-warming after a topology swap.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"natix/internal/catalog"
	"natix/internal/plancache"
	"natix/internal/server"
)

// delayTransport delays every coordinator->shard /query call, holding
// coordinator flights open long enough for joins to be deterministic.
type delayTransport struct {
	base  http.RoundTripper
	delay time.Duration
}

func (d *delayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/query") {
		select {
		case <-time.After(d.delay):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return d.base.RoundTrip(r)
}

func delayShardQueries(delay time.Duration) func(http.RoundTripper) http.RoundTripper {
	return func(rt http.RoundTripper) http.RoundTripper {
		return &delayTransport{base: rt, delay: delay}
	}
}

// waitCoordFlight blocks until the coordinator has any open flight.
func waitCoordFlight(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.flightMu.Lock()
		n := len(c.flights)
		c.flightMu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator flight never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

func smallDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<x>%d</x>", i)
	}
	sb.WriteString("</r>")
	return sb.String()
}

func TestCoordSingleflightCoalesces(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{WrapTransport: delayShardQueries(250 * time.Millisecond)})
	h := coord.Handler()

	// Two spellings of one query: the flight key is canonical, so they
	// share a single fan-out.
	queries := []string{"count(//x)", "count(//x)", "count(/descendant::x)", "count(//x)"}
	type res struct {
		status    int
		coalesced bool
		number    float64
	}
	results := make([]res, len(queries))
	var wg sync.WaitGroup
	leaderGo := func(i int) {
		defer wg.Done()
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: queries[i], Document: "a",
		}})
		r := &results[i]
		r.status = st
		if st == http.StatusOK {
			qr := decodeCoord(t, data)
			r.coalesced = qr.Coalesced
			if qr.Result != nil && qr.Result.Number != nil {
				r.number = *qr.Result.Number
			}
		}
	}
	wg.Add(1)
	go leaderGo(0)
	waitCoordFlight(t, coord)
	for i := 1; i < len(queries); i++ {
		wg.Add(1)
		go leaderGo(i)
	}
	wg.Wait()

	leaders := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if r.number != 8 {
			t.Fatalf("request %d: number = %v, want 8", i, r.number)
		}
		if !r.coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
	if got := coord.Coalesced(); got != int64(len(queries)-1) {
		t.Fatalf("coalesced = %d, want %d", got, len(queries)-1)
	}
}

func TestCoordLeaderErrorFanOut(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(4)},
	}, Config{WrapTransport: delayShardQueries(250 * time.Millisecond)})
	h := coord.Handler()

	const bad = "no-such-function(//x)"
	const clients = 4
	statuses := make([]int, clients)
	codes := make([]string, clients)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: bad, Document: "a",
		}})
		statuses[i] = st
		if st != http.StatusOK {
			codes[i], _ = coordErr(t, data)
		}
	}
	wg.Add(1)
	go run(0)
	waitCoordFlight(t, coord)
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go run(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusBadRequest || codes[i] != server.CodeParseError {
			t.Fatalf("client %d: status %d code %q, want 400 %q",
				i, statuses[i], codes[i], server.CodeParseError)
		}
	}
	if got := coord.Coalesced(); got != clients-1 {
		t.Fatalf("coalesced = %d, want %d", got, clients-1)
	}
}

func TestCoordWaiterCancelVsLeader(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{WrapTransport: delayShardQueries(300 * time.Millisecond)})
	h := coord.Handler()

	const q = "count(//x)"
	leaderDone := make(chan *QueryResponse, 1)
	go func() {
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: q, Document: "a",
		}})
		if st != http.StatusOK {
			leaderDone <- nil
			return
		}
		leaderDone <- decodeCoord(t, data)
	}()
	waitCoordFlight(t, coord)

	// Join with a deadline that expires while the shard call is still in
	// its injected delay: the joiner must 504 out without cancelling the
	// leader's fan-out.
	st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
		Query: q, Document: "a", TimeoutMS: 50,
	}})
	if st != http.StatusGatewayTimeout {
		t.Fatalf("joiner status = %d, want 504 (%s)", st, data)
	}
	if code, _ := coordErr(t, data); code != server.CodeTimeout {
		t.Fatalf("joiner code = %q, want %q", code, server.CodeTimeout)
	}
	qr := <-leaderDone
	if qr == nil || qr.Result == nil || qr.Result.Number == nil || *qr.Result.Number != 8 {
		t.Fatalf("leader did not complete after joiner cancel: %+v", qr)
	}
	if got := coord.Coalesced(); got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
}

// startFileShard spins up a shard whose documents are file-backed, so
// POST /reload can re-read them.
func startFileShard(t *testing.T, docs map[string]string) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	cat := catalog.New()
	for name, src := range docs {
		p := filepath.Join(dir, name+".xml")
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cat.OpenMemFile(name, p); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(server.Config{Catalog: cat, Cache: plancache.New(64, 0)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		cat.CloseAll()
	})
	return ts
}

// startFileCluster is startCluster over file-backed shards.
func startFileCluster(t *testing.T, placement []map[string]string, cfg Config) *Coordinator {
	t.Helper()
	spec := TopologySpec{Generation: 1}
	for i, docs := range placement {
		ts := startFileShard(t, docs)
		spec.Shards = append(spec.Shards, ShardSpec{
			ID:        fmt.Sprintf("s%d", i),
			Endpoints: []string{ts.URL},
		})
	}
	topo, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
		coord.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord.ProbeNow(ctx)
	return coord
}

func TestCoordReloadFanOutAggregatesWarm(t *testing.T) {
	coord := startFileCluster(t, []map[string]string{
		{"a": smallDoc(3)},
		{"b": smallDoc(5)},
	}, Config{})
	h := coord.Handler()

	// Populate each shard's workload profile so the reload has something
	// to warm.
	for _, doc := range []string{"a", "b"} {
		st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: "count(//x)", Document: doc,
		}})
		if st != http.StatusOK {
			t.Fatalf("seed query %s: status %d (%s)", doc, st, data)
		}
	}

	r := httptest.NewRequest(http.MethodPost, "/reload?document=*", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("reload: %d (%s)", w.Code, w.Body.String())
	}
	var resp struct {
		Documents []ReloadDocStatus   `json:"documents"`
		Shards    []ReloadShardStatus `json:"shards"`
		Warmed    int                 `json:"warmed"`
		Errors    int                 `json:"errors"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("reload errors: %+v", resp.Documents)
	}
	if len(resp.Documents) != 2 || len(resp.Shards) != 2 {
		t.Fatalf("documents/shards = %d/%d, want 2/2", len(resp.Documents), len(resp.Shards))
	}
	for _, d := range resp.Documents {
		if d.Generation != 2 {
			t.Fatalf("doc %s: generation %d, want 2", d.Document, d.Generation)
		}
		if d.Warmed != 1 {
			t.Fatalf("doc %s: warmed %d, want 1", d.Document, d.Warmed)
		}
	}
	for _, s := range resp.Shards {
		if s.Documents != 1 || s.Warmed != 1 {
			t.Fatalf("shard %s: documents=%d warmed=%d, want 1/1", s.Shard, s.Documents, s.Warmed)
		}
	}
	if resp.Warmed != 2 {
		t.Fatalf("total warmed = %d, want 2", resp.Warmed)
	}
}

func TestCoordTopologySwapWarms(t *testing.T) {
	coord := startFileCluster(t, []map[string]string{
		{"a": smallDoc(3)},
		{"b": smallDoc(5)},
	}, Config{})
	h := coord.Handler()

	for _, doc := range []string{"a", "b"} {
		if st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
			Query: "count(//x)", Document: doc,
		}}); st != http.StatusOK {
			t.Fatalf("seed query %s: status %d (%s)", doc, st, data)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sum := coord.warmAll(ctx)
	if sum.Documents != 2 || sum.Warmed != 2 || sum.Errors != 0 {
		t.Fatalf("warm summary = %+v, want 2 documents, 2 warmed, 0 errors", sum)
	}
	if len(sum.Shards) != 2 {
		t.Fatalf("warm shards = %d, want 2", len(sum.Shards))
	}

	// The pass is retained and reported on GET /topology.
	r := httptest.NewRequest(http.MethodGet, "/topology", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var topo struct {
		LastWarm *WarmSummary `json:"last_warm"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &topo); err != nil {
		t.Fatal(err)
	}
	if topo.LastWarm == nil || topo.LastWarm.Warmed != 2 {
		t.Fatalf("last_warm = %+v, want warmed 2", topo.LastWarm)
	}
}

func TestCoordSingleflightDisabled(t *testing.T) {
	coord, _ := startCluster(t, []map[string]string{
		{"a": smallDoc(8)},
	}, Config{DisableSingleflight: true, WrapTransport: delayShardQueries(100 * time.Millisecond)})
	h := coord.Handler()

	const clients = 4
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, data := postCoord(t, h, QueryRequest{QueryRequest: server.QueryRequest{
				Query: "count(//x)", Document: "a",
			}})
			if st != http.StatusOK {
				t.Errorf("status %d (%s)", st, data)
				return
			}
			if qr := decodeCoord(t, data); qr.Coalesced {
				t.Error("coalesced response with singleflight disabled")
			}
		}()
	}
	wg.Wait()
	if got := coord.Coalesced(); got != 0 {
		t.Fatalf("coalesced = %d, want 0", got)
	}
}

// holdTransport lets every coordinator->shard /query call reach its shard,
// then holds the answer until release closes, signalling answered as each
// one comes back. A flight held this way has already read its generation.
type holdTransport struct {
	base     http.RoundTripper
	answered chan struct{}
	release  chan struct{}
}

func (h *holdTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := h.base.RoundTrip(r)
	if err != nil || !strings.HasSuffix(r.URL.Path, "/query") {
		return resp, err
	}
	h.answered <- struct{}{}
	select {
	case <-h.release:
		return resp, nil
	case <-r.Context().Done():
		resp.Body.Close()
		return nil, r.Context().Err()
	}
}

// TestCoordReloadSplitsFlight holds a flight open, with its pre-reload
// answer already read, across an acknowledged POST /reload: a read sent
// after the acknowledgement must lead its own flight and see the new
// generation instead of joining the old one.
func TestCoordReloadSplitsFlight(t *testing.T) {
	// answered holds more signals than the test's two /query calls send,
	// so no send blocks on the one receive.
	hold := &holdTransport{answered: make(chan struct{}, 4), release: make(chan struct{})}
	coord := startFileCluster(t, []map[string]string{
		{"a": smallDoc(3)},
	}, Config{WrapTransport: func(rt http.RoundTripper) http.RoundTripper {
		hold.base = rt
		return hold
	}})
	h := coord.Handler()
	query := QueryRequest{QueryRequest: server.QueryRequest{Query: "count(//x)", Document: "a"}}

	type res struct {
		status int
		data   []byte
	}
	pre, post := make(chan res, 1), make(chan res, 1)
	go func() {
		st, data := postCoord(t, h, query)
		pre <- res{st, data}
	}()
	<-hold.answered // the leader's shard answered generation 1

	r := httptest.NewRequest(http.MethodPost, "/reload?document=a", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"generation":2`) {
		t.Fatalf("reload: %d (%s)", w.Code, w.Body.String())
	}

	go func() {
		st, data := postCoord(t, h, query)
		post <- res{st, data}
	}()
	// The post-reload read either joins the held flight (counted as
	// coalesced) or registers its own; wait for whichever happens.
	deadline := time.Now().Add(5 * time.Second)
	for {
		coord.flightMu.Lock()
		n := len(coord.flights)
		coord.flightMu.Unlock()
		if n == 2 || coord.Coalesced() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-reload read neither joined nor led a flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(hold.release)

	for _, c := range []struct {
		name string
		ch   chan res
		gen  uint64
	}{{"pre-reload", pre, 1}, {"post-reload", post, 2}} {
		got := <-c.ch
		if got.status != http.StatusOK {
			t.Fatalf("%s read: status %d (%s)", c.name, got.status, got.data)
		}
		qr := decodeCoord(t, got.data)
		if qr.Coalesced {
			t.Fatalf("%s read joined another flight", c.name)
		}
		if qr.Generation != c.gen {
			t.Fatalf("%s read: generation %d, want %d", c.name, qr.Generation, c.gen)
		}
	}
	if got := coord.Coalesced(); got != 0 {
		t.Fatalf("coalesced = %d, want 0", got)
	}
}
