package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// qstate is the pool's view of one query: a FIFO of its submitted work
// orders plus the dispatch bookkeeping fairness needs.
type qstate struct {
	id       int
	fifo     []Task
	priority int
	running  int    // tasks of this query on workers right now
	lastSeq  uint64 // global dispatch sequence of its most recent pick
}

// WorkerPool is a fixed set of worker goroutines shared by every run
// submitting to it — one run's own pool, or a session's pool shared
// by every admitted query. Dispatch is fair across queries — the next
// task comes from the highest priority class, breaking ties toward the query
// with the fewest tasks already running, then the least recently dispatched
// one — so a wide query cannot starve a narrow one, while FIFO order within
// each query preserves the per-query scheduler's intent.
type WorkerPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[int]*qstate
	queued int
	seq    uint64
	closed bool
	wg     sync.WaitGroup
}

// NewWorkerPool starts n worker goroutines (minimum 1).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{queues: make(map[int]*qstate)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(i)
	}
	return p
}

// Submit enqueues a task to run exactly once. It never waits for task
// execution — a run submits under its own lock, which the finishing task
// takes to report back. The per-query in-flight cap (ExecCtx.Workers) bounds
// how many tasks a query can have here, and admission bounds the number of
// queries, so the internal queue is naturally bounded.
func (p *WorkerPool) Submit(t Task) {
	p.mu.Lock()
	q := p.queues[t.Query]
	if q == nil {
		q = &qstate{id: t.Query}
		p.queues[t.Query] = q
	}
	q.priority = t.Priority
	q.fifo = append(q.fifo, t)
	p.queued++
	p.mu.Unlock()
	p.cond.Signal()
}

// pickLocked chooses the query to dispatch from next, nil if none has work.
func (p *WorkerPool) pickLocked() *qstate {
	var best *qstate
	for _, q := range p.queues {
		if len(q.fifo) == 0 {
			continue
		}
		if best == nil || dispatchBefore(q, best) {
			best = q
		}
	}
	return best
}

// dispatchBefore is the fairness order: priority class descending, then
// fewest running (the query getting the least service right now), then least
// recently dispatched, then query id for determinism.
func dispatchBefore(a, b *qstate) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if a.running != b.running {
		return a.running < b.running
	}
	if a.lastSeq != b.lastSeq {
		return a.lastSeq < b.lastSeq
	}
	return a.id < b.id
}

func (p *WorkerPool) worker(id int) {
	defer p.wg.Done()
	// Label the worker goroutine so CPU/goroutine profiles attribute samples
	// to scheduler workers (`go tool pprof` tag filter "uot_worker").
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("uot_worker", strconv.Itoa(id))))
	p.mu.Lock()
	for {
		for p.queued == 0 && !p.closed {
			p.cond.Wait()
		}
		q := p.pickLocked()
		if q == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			continue
		}
		t := q.fifo[0]
		q.fifo = q.fifo[1:]
		p.queued--
		q.running++
		p.seq++
		q.lastSeq = p.seq
		p.mu.Unlock()

		t.Run(id)

		p.mu.Lock()
		q.running--
		if len(q.fifo) == 0 && q.running == 0 {
			delete(p.queues, q.id)
		}
	}
}

// Close drains the queue — submitted tasks still run, since a query's run
// would otherwise wait forever on their completions — then stops the workers
// and returns.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
