package grid

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQueueFull is the typed backpressure error Submit returns when a
// job's cells would overflow the bounded queue. Callers shed load or
// retry; nothing is partially enqueued.
type ErrQueueFull struct {
	Queued    int // cells already waiting
	Capacity  int // queue bound
	Requested int // cells the rejected job wanted to add
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("grid: queue full: %d cells queued of %d capacity, %d more requested",
		e.Queued, e.Capacity, e.Requested)
}

// errShutDown refuses work once the scheduler is shutting down.
var errShutDown = errors.New("grid: scheduler is shut down")

// item is one schedulable unit: a job plus the indexes of the cells it
// covers — a single cell, or a whole timing cohort the worker steps in
// lockstep — ordered by job priority (higher first) then global
// submission order.
type item struct {
	job   *Job
	cells []int
	pri   int
	seq   uint64
	at    time.Time // enqueue time, for queue-wait attribution
}

type cellHeap []*item

func (h cellHeap) Len() int { return len(h) }
func (h cellHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h cellHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cellHeap) Push(x any)   { *h = append(*h, x.(*item)) }
func (h *cellHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// queue is the bounded priority queue feeding the worker pool.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   cellHeap
	cells  int // queued cells across all groups (the capacity unit)
	cap    int
	seq    uint64
	closed bool
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues the given cell groups of job atomically: either every
// group is accepted or none is (ErrQueueFull). The capacity bound
// counts cells, not groups, so cohort grouping never inflates how much
// work the queue admits.
func (q *queue) push(job *Job, groups [][]int) error {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errShutDown
	}
	if q.cells+n > q.cap {
		return &ErrQueueFull{Queued: q.cells, Capacity: q.cap, Requested: n}
	}
	now := time.Now()
	for _, g := range groups {
		q.seq++
		heap.Push(&q.heap, &item{job: job, cells: g, pri: job.Priority, seq: q.seq, at: now})
	}
	q.cells += n
	q.cond.Broadcast()
	return nil
}

// pop blocks until a cell is available and returns it; ok is false once
// the queue is closed (queued cells are abandoned to the shutdown path,
// which persists them).
func (q *queue) pop() (*item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	it := heap.Pop(&q.heap).(*item)
	q.cells -= len(it.cells)
	return it, true
}

// remove drops every queued cell of job (cancellation) and returns the
// dropped cell indexes. Cells already popped by a worker are unaffected.
func (q *queue) remove(job *Job) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var dropped []int
	keep := q.heap[:0]
	for _, it := range q.heap {
		if it.job == job {
			dropped = append(dropped, it.cells...)
		} else {
			keep = append(keep, it)
		}
	}
	for i := len(keep); i < len(q.heap); i++ {
		q.heap[i] = nil
	}
	q.heap = keep
	q.cells -= len(dropped)
	heap.Init(&q.heap)
	return dropped
}

// depth returns the number of queued cells.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cells
}

// close wakes every worker; pop returns false from then on.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
