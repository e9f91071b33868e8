// Intra-query parallelism: the Exchange operator splits a batch-capable
// plan segment across worker goroutines and merges the results back in
// document order. The paper's algebraic plans are pipelines of composable
// iterators; a marked segment — a chain of UnnestMap/Select operators that
// provably communicate through one node column — is exactly the unit that
// can run anywhere, because its only input is a stream of context nodes
// and its only output is a stream of result nodes.
//
// Topology: the coordinator (the goroutine driving NextBatch) pulls
// batches from the serial feed below the segment, tags each with a
// sequence number, and round-robins them into per-worker channels. Every
// worker owns a full clone of the segment pipeline bound to its own Exec
// (machine, registers, pools) and a governor fanned out from the parent's,
// runs each task batch through the clone, and posts the outputs to a
// shared results channel. The merge side holds results until their
// sequence number is next, so the emitted node order is exactly the serial
// order: batches are emitted in feed order, and within a batch the worker
// preserved its input order.
//
// Error contract: a failing task parks its error in sequence order like
// any result, so the error that surfaces is the one the serial execution
// would have hit first, regardless of worker timing. Cancellation and
// budget trips propagate through the fanned-out governor family — shared
// atomic totals, per-governor sticky errors — and the exchange's stop flag
// aborts in-flight tasks promptly at their next governor poll.
//
// Deadlock freedom: the results channel is sized for the maximum number of
// outstanding tasks, so a worker can always post and then block only on
// its empty task channel; the coordinator dispatches at most maxInflight
// tasks before draining results.
package physical

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"natix/internal/dom"
)

// taskDepth is the per-worker task channel capacity: enough queued batches
// to keep a worker busy while the coordinator round-robins past the
// others, small enough to bound buffered memory.
const taskDepth = 2

// exTask is one dispatched unit of work: a feed batch and its sequence
// number. The buffer comes from the parent Exec's pool; the worker returns
// it there after processing.
type exTask struct {
	seq int64
	buf []dom.Node
	n   int
}

// outBatch is one output buffer a worker filled (parent-pool owned; the
// merge returns it after copying out).
type outBatch struct {
	buf []dom.Node
	n   int
}

// exResult is the outcome of one task. Every dispatched task produces
// exactly one result — success, failure, or discarded-after-stop — which
// is what makes the coordinator's outstanding-task accounting exact.
type exResult struct {
	seq  int64
	outs []outBatch
	err  error
}

// Exchange runs a cloned pipeline segment on Workers goroutines with an
// order-preserving merge. It serves only the batched protocol (the code
// generator instantiates it only inside batched executions); its scalar
// Next reports a protocol violation.
type Exchange struct {
	Ex *Exec
	// Feed is the serial input below the segment; it runs on the
	// coordinator goroutine. FeedCol is the register of the node column
	// the feed produces (for the scalar-adapter bridge).
	Feed    Iter
	FeedCol int
	// Workers is the parallelism degree (>= 2; the code generator falls
	// back to the serial builder otherwise).
	Workers int
	// Clone builds one worker's copy of the segment pipeline reading from
	// src, bound to the worker's Exec. Called on the coordinator
	// goroutine at Open (harness WrapIter hooks are not goroutine-safe).
	Clone func(ex *Exec, src Iter) Iter
	// LocalDedup runs a per-task duplicate elimination on each worker's
	// output. Set when the operator directly above the segment is a
	// batched DupElim on the same column: dropping a batch's duplicates
	// early keeps the serial consumer from becoming the bottleneck, and
	// first-occurrence semantics compose under the ordered merge (every
	// duplicate is dropped exactly once, locally or globally).
	LocalDedup bool
	// Slot is the profile slot of the segment's top operator; per-worker
	// stats attach there at teardown. -1 when the execution is
	// uninstrumented.
	Slot int

	// Coordinator state. All fields below are touched only by the
	// goroutine driving Open/NextBatch/Close, except results/tasks/stop,
	// which are the worker handshake.
	opened   bool
	finished bool
	feedOpen bool
	feedSrc  batchSource
	feedDone bool
	feedErr  error
	workers  []*exWorker
	results  chan exResult
	stop     atomic.Bool
	wg       sync.WaitGroup
	nextSeq  int64 // next task sequence to dispatch
	nextEmit int64 // next task sequence the merge may emit
	inflight int   // dispatched tasks not yet promoted by the merge
	maxIn    int
	pending  map[int64]exResult
	cur      exResult
	curSet   bool
	curBatch int
	curOff   int
	err      error
	stats    []WorkerStat
}

var _ BatchIter = (*Exchange)(nil)

// exWorker is one worker goroutine's bundle: its Exec, its cloned
// pipeline, the batched view of that pipeline, and its task queue.
type exWorker struct {
	e     *Exchange
	ex    *Exec
	src   *taskSource
	pipe  Iter
	bi    batchSource
	tasks chan exTask
	stat  *WorkerStat
	// dedup is the per-task duplicate elimination of Exchange.LocalDedup.
	// Its drops count into the worker's Stats.DupDropped, aggregated into
	// the parent at teardown, so totals match the serial plan, where the
	// global DupElim counted them.
	dedup *dedup
}

// taskSource is the per-worker segment input: it serves exactly one task
// batch per Open/Close cycle of the cloned pipeline. It is always batched;
// the scalar Next reports a protocol violation (a clone is built entirely
// from batch-marked operators).
type taskSource struct {
	buf []dom.Node
	n   int
	pos int
}

func (s *taskSource) set(buf []dom.Node, n int) { s.buf, s.n, s.pos = buf, n, 0 }

func (s *taskSource) Open() error { s.pos = 0; return nil }

func (s *taskSource) Next() (bool, error) {
	return false, fmt.Errorf("physical: exchange task source driven through the scalar protocol")
}

func (s *taskSource) Close() error { return nil }

// Batched implements BatchIter.
func (s *taskSource) Batched() bool { return true }

// NextBatch implements BatchIter.
func (s *taskSource) NextBatch(out []dom.Node) (int, error) {
	if s.pos >= s.n {
		return 0, nil
	}
	k := copy(out, s.buf[s.pos:s.n])
	s.pos += k
	return k, nil
}

// Open implements Iter: opens the feed, builds the per-worker pipelines on
// the coordinator goroutine, and starts the workers.
func (e *Exchange) Open() error {
	if e.Workers < 2 || e.Ex.NewWorkerExec == nil {
		return fmt.Errorf("physical: exchange opened without workers (degree %d)", e.Workers)
	}
	e.stop.Store(false)
	e.finished = false
	e.feedDone = false
	e.feedErr = nil
	e.err = nil
	e.nextSeq, e.nextEmit, e.inflight = 0, 0, 0
	e.curSet, e.curBatch, e.curOff = false, 0, 0
	if err := e.Feed.Open(); err != nil {
		return err
	}
	e.feedOpen = true
	e.feedSrc = batchInput(e.Feed, e.Ex, e.FeedCol)
	e.maxIn = e.Workers * (taskDepth + 1)
	e.results = make(chan exResult, e.maxIn)
	e.pending = make(map[int64]exResult, e.maxIn)
	e.stats = make([]WorkerStat, e.Workers)
	e.workers = make([]*exWorker, e.Workers)
	for i := 0; i < e.Workers; i++ {
		wex := e.Ex.NewWorkerExec(e.Ex.Gov.Worker(&e.stop))
		src := &taskSource{}
		pipe := e.Clone(wex, src)
		w := &exWorker{
			e: e, ex: wex, src: src, pipe: pipe,
			bi:    batchInput(pipe, wex, e.FeedCol),
			tasks: make(chan exTask, taskDepth),
			stat:  &e.stats[i],
		}
		if e.LocalDedup {
			w.dedup = &dedup{}
		}
		e.workers[i] = w
		e.wg.Add(1)
		go w.run()
	}
	e.opened = true
	return nil
}

// Next implements Iter. The exchange lives only inside batched pipelines;
// a scalar pull is a protocol violation.
func (e *Exchange) Next() (bool, error) {
	return false, fmt.Errorf("physical: exchange driven through the scalar protocol")
}

// Batched implements BatchIter.
func (e *Exchange) Batched() bool { return true }

// NextBatch implements BatchIter: dispatch feed batches, collect worker
// results, and emit them strictly in feed order.
func (e *Exchange) NextBatch(out []dom.Node) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	for {
		// Drain the result currently being emitted.
		if e.curSet {
			for e.curBatch < len(e.cur.outs) {
				ob := e.cur.outs[e.curBatch]
				if e.curOff < ob.n {
					k := copy(out, ob.buf[e.curOff:ob.n])
					e.curOff += k
					return k, nil
				}
				e.Ex.PutNodeBuf(ob.buf)
				e.curBatch++
				e.curOff = 0
			}
			e.curSet = false
			e.cur = exResult{}
			e.curBatch = 0
		}
		// Promote the next-in-order result when it has arrived.
		if r, ok := e.pending[e.nextEmit]; ok {
			delete(e.pending, e.nextEmit)
			e.nextEmit++
			e.inflight--
			if r.err != nil {
				e.err = r.err
				e.shutdown()
				return 0, r.err
			}
			e.cur, e.curSet, e.curBatch, e.curOff = r, true, 0, 0
			continue
		}
		// Dispatch more feed while there is inflight headroom.
		if !e.feedDone && e.inflight < e.maxIn {
			buf := e.Ex.GetNodeBuf()
			k, err := e.feedSrc.NextBatch(buf)
			if err != nil || k == 0 {
				e.Ex.PutNodeBuf(buf)
				e.feedDone = true
				e.feedErr = err
				for _, w := range e.workers {
					close(w.tasks)
				}
				continue
			}
			w := e.workers[e.nextSeq%int64(e.Workers)]
			w.tasks <- exTask{seq: e.nextSeq, buf: buf, n: k}
			e.nextSeq++
			e.inflight++
			continue
		}
		// Nothing emittable and nothing to dispatch: wait for a worker.
		if e.inflight > 0 {
			r := <-e.results
			e.pending[r.seq] = r
			continue
		}
		// Feed exhausted, every task emitted.
		if e.feedErr != nil {
			e.err = e.feedErr
			e.shutdown()
			return 0, e.err
		}
		e.finish()
		return 0, nil
	}
}

// shutdown aborts the parallel execution: raises the stop flag (workers
// abandon in-flight tasks at their next governor poll), drains every
// outstanding result back to the pools, and joins the workers. Idempotent;
// coordinator goroutine only.
func (e *Exchange) shutdown() {
	if e.finished {
		return
	}
	e.stop.Store(true)
	if !e.feedDone {
		e.feedDone = true
		for _, w := range e.workers {
			close(w.tasks)
		}
	}
	// Results parked in pending were already received off the channel;
	// count them out of inflight first, or the channel drain below would
	// wait for results that can never arrive again.
	for seq, r := range e.pending {
		for _, ob := range r.outs {
			e.Ex.PutNodeBuf(ob.buf)
		}
		delete(e.pending, seq)
		e.inflight--
	}
	for e.inflight > 0 {
		r := <-e.results
		e.inflight--
		for _, ob := range r.outs {
			e.Ex.PutNodeBuf(ob.buf)
		}
	}
	if e.curSet {
		for ; e.curBatch < len(e.cur.outs); e.curBatch++ {
			e.Ex.PutNodeBuf(e.cur.outs[e.curBatch].buf)
		}
		e.curSet = false
		e.cur = exResult{}
	}
	e.finish()
}

// finish joins the workers and folds their accounting into the parent:
// Stats totals (so a parallel run reports exactly what the serial run
// would) and, on instrumented executions, the per-worker profile entries.
// Idempotent; coordinator goroutine only.
func (e *Exchange) finish() {
	if e.finished {
		return
	}
	e.wg.Wait()
	var absorbed int64
	for _, w := range e.workers {
		s := &w.ex.Stats
		e.Ex.Stats.AxisSteps += s.AxisSteps
		e.Ex.Stats.Tuples += s.Tuples
		e.Ex.Stats.DupDropped += s.DupDropped
		e.Ex.Stats.MemoHits += s.MemoHits
		e.Ex.Stats.MemoMisses += s.MemoMisses
		e.Ex.Stats.Sorted += s.Sorted
		absorbed += s.Tuples
	}
	// The workers already charged their tuples into the shared governor
	// total; folding them into the parent's cumulative counter must not
	// charge them again.
	e.Ex.Gov.AbsorbTuples(absorbed)
	if e.Ex.Prof != nil && e.Slot >= 0 {
		if e.Ex.Prof.Workers == nil {
			e.Ex.Prof.Workers = make(map[int][]WorkerStat)
		}
		e.Ex.Prof.Workers[e.Slot] = append([]WorkerStat(nil), e.stats...)
	}
	e.finished = true
}

// Close implements Iter.
func (e *Exchange) Close() error {
	if !e.opened {
		return nil
	}
	e.opened = false
	e.shutdown()
	e.workers = nil
	e.results = nil
	e.pending = nil
	var err error
	if e.feedOpen {
		e.feedOpen = false
		err = e.Feed.Close()
	}
	e.feedSrc = nil
	return err
}

// run is a worker goroutine: one result per task, unconditionally — that
// invariant (plus the results channel sized for every outstanding task)
// keeps the coordinator's bookkeeping exact and the topology deadlock-free.
func (w *exWorker) run() {
	defer w.e.wg.Done()
	for t := range w.tasks {
		if w.e.stop.Load() {
			// Teardown: return the task buffer and post an empty result so
			// the drain still sees every sequence number.
			w.e.Ex.PutNodeBuf(t.buf)
			w.e.results <- exResult{seq: t.seq}
			continue
		}
		w.e.results <- w.runTask(t)
	}
}

// runTask opens the cloned pipeline over one task batch, drains it into
// output buffers, and closes it. Pipeline Open/Close pairs per task, so
// harness wrappers observe balanced lifecycles whatever the outcome.
func (w *exWorker) runTask(t exTask) (r exResult) {
	r.seq = t.seq
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			for _, ob := range r.outs {
				w.e.Ex.PutNodeBuf(ob.buf)
			}
			r.outs = nil
			r.err = fmt.Errorf("physical: panic in exchange worker: %v\n%s", p, debug.Stack())
		}
		w.stat.Batches++
		w.stat.Busy += time.Since(start)
	}()
	w.src.set(t.buf, t.n)
	if w.dedup != nil {
		w.dedup.reset(w.ex)
	}
	if err := w.pipe.Open(); err != nil {
		w.e.Ex.PutNodeBuf(t.buf)
		r.err = err
		return r
	}
	for r.err == nil {
		buf := w.e.Ex.GetNodeBuf()
		k, err := w.bi.NextBatch(buf)
		if err != nil {
			w.e.Ex.PutNodeBuf(buf)
			r.err = err
			break
		}
		if k == 0 {
			w.e.Ex.PutNodeBuf(buf)
			break
		}
		if w.dedup != nil {
			k, err = w.dedup.filter(w.ex, buf, buf[:k])
			if err != nil {
				w.e.Ex.PutNodeBuf(buf)
				r.err = err
				break
			}
			if k == 0 {
				w.e.Ex.PutNodeBuf(buf)
				continue
			}
		}
		w.stat.Tuples += int64(k)
		r.outs = append(r.outs, outBatch{buf: buf, n: k})
	}
	if err := w.pipe.Close(); err != nil && r.err == nil {
		r.err = err
	}
	w.e.Ex.PutNodeBuf(t.buf)
	if r.err != nil {
		for _, ob := range r.outs {
			w.e.Ex.PutNodeBuf(ob.buf)
		}
		r.outs = nil
	}
	return r
}
