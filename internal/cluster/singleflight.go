// Coordinator-level singleflight: concurrent identical queries — same
// canonical query text, document expression, options, topology generation
// and reload epoch — coalesce into one shard fan-out whose answer serves
// every waiter. This is the same discipline as the shard server's
// singleflight, one layer up: without it, N clients submitting one hot
// query through the coordinator would fan out N identical shard calls,
// each of which the shard would then coalesce anyway — paying N
// round-trips to save nothing.
// The leader executes on a context detached from its own HTTP request;
// a waiter (the leader's client included) cancelling merely leaves the
// flight, and only the last departure cancels the fan-out. Leader failure
// — admission rejection, shard error, timeout — propagates the same typed
// error envelope to every waiter.
package cluster

import (
	"context"
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"natix/internal/canon"
	"natix/internal/metrics"
)

var mCoordCoalesced = metrics.Default.Counter("natix_coord_coalesced_total", "Coordinator queries served by joining an identical in-flight fan-out instead of calling shards.")

// coordFlight is one in-progress coalesced coordinator execution.
type coordFlight struct {
	done chan struct{}
	// resp/err are set exactly once, before done closes; read-only after.
	resp *QueryResponse
	err  *apiError
	// waiters counts everyone awaiting the result, the leader included.
	// The last one to leave cancels the fan-out.
	waiters atomic.Int64
	cancel  context.CancelFunc
}

// leave drops one waiter; the last departure cancels the fan-out context.
func (f *coordFlight) leave() {
	if f.waiters.Add(-1) == 0 {
		f.cancel()
	}
}

// complete publishes the result and releases every waiter.
func (f *coordFlight) complete(resp *QueryResponse, err *apiError) {
	f.resp, f.err = resp, err
	close(f.done)
}

// coordFlightState holds the coordinator's flight registry; embedded in
// Coordinator, declared here to keep the machinery in one file.
type coordFlightState struct {
	flightMu sync.Mutex
	flights  map[string]*coordFlight
	// reloadEpoch counts acknowledged /reload fan-outs. It is part of the
	// flight key, so a read sent after a reload was acknowledged never
	// joins a flight that may have read the previous generation.
	reloadEpoch atomic.Uint64
}

// flightKey builds the coalescing key: canonical query text, the document
// expression verbatim (a single name, a list, or "*" — each is its own
// answer shape), the result-affecting request options, the topology
// generation so a flight never bridges a topology swap, and the reload
// epoch so it never bridges an acknowledged document reload.
func flightKey(req *QueryRequest, topoGen, reloadEpoch uint64) string {
	cq, _ := canon.Canonicalize(req.Query)
	var sb strings.Builder
	sb.WriteString(cq)
	sb.WriteByte(0)
	sb.WriteString(req.Document)
	sb.WriteByte(0)
	sb.WriteString(req.Mode)
	if len(req.Namespaces) > 0 {
		prefixes := make([]string, 0, len(req.Namespaces))
		for p := range req.Namespaces {
			prefixes = append(prefixes, p)
		}
		sort.Strings(prefixes)
		for _, p := range prefixes {
			sb.WriteByte(0)
			sb.WriteString(p)
			sb.WriteByte('=')
			sb.WriteString(req.Namespaces[p])
		}
	}
	if req.AllowPartial {
		sb.WriteString("\x00partial")
	}
	var gb [16]byte
	binary.LittleEndian.PutUint64(gb[:8], topoGen)
	binary.LittleEndian.PutUint64(gb[8:], reloadEpoch)
	sb.WriteByte(0)
	sb.Write(gb[:])
	return sb.String()
}

// joinOrLead returns the flight for k, reporting whether the caller leads
// it (and must fan out) or joined an existing one (and must only wait).
// Either way the caller holds one waiter reference.
func (c *Coordinator) joinOrLead(k string, cancel context.CancelFunc) (*coordFlight, bool) {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if f, ok := c.flights[k]; ok {
		f.waiters.Add(1)
		return f, false
	}
	f := &coordFlight{done: make(chan struct{}), cancel: cancel}
	f.waiters.Store(1)
	c.flights[k] = f
	return f, true
}

// finishFlight unregisters the flight and publishes its result. Removal
// happens under flightMu before completion, so a request that finds the key
// absent can never miss a result it should have shared.
func (c *Coordinator) finishFlight(k string, f *coordFlight, resp *QueryResponse, err *apiError) {
	c.flightMu.Lock()
	delete(c.flights, k)
	c.flightMu.Unlock()
	f.complete(resp, err)
}
