package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long an idle worker polls before it blocks: a
// helper waiting for its next task, and the caller waiting for the
// helpers to finish the current one. The aging tasks it is sized for
// take about 30 µs (a shard step) to 90 µs (a zone sweep), and a
// helper woken from a block rarely reaches its CPU before the caller
// has done the work itself (DESIGN.md §11). Between two aging Runs the
// caller works alone on the epoch barrier, a snapshot or an audit's
// gather: on a 2-CPU container 8.7 % of those gaps outlast 200 µs and
// 0.7 % outlast 500 µs, so a helper polling this long is nearly always
// still polling when the next task arrives.
const spinWindow = 500 * time.Microsecond

// spinPolls is how many times a polling worker reads its flag between
// yields: about a microsecond of loads, so a poll sees a new task or
// a finished Run within nanoseconds, while the yield that keeps one P
// safe (and its scheduler lock) is paid once per batch.
const spinPolls = 1024

// Team is the repo's one bounded fork-join: the calling goroutine
// plus jobs-1 helper goroutines that claim the indices of each Run
// from a shared counter. Helpers start on the first Run that can use
// them and stay until Close; between Runs each polls for the next
// task for spinWindow, yielding its P between batches of polls, then
// blocks.
//
// Run keeps one contract at every team size: each fn(i) writes only
// state owned by index i, and the lowest-index error wins. A team of
// one runs the indices on the caller in order and stops at the first
// error. A Team runs one Run at a time.
type Team struct {
	jobs    int
	helpers []*helper
	// cur is the latest task; helpers compare it against the last one
	// they worked. Each Run publishes a fresh task, so a helper still
	// reading the previous one never sees a field change under it.
	cur    atomic.Pointer[task]
	fin    chan struct{} // one token per Run, sent by the last index
	exited sync.WaitGroup
}

// helper is one helper goroutine's parking slot. parked is true while
// the helper may block on wake; a Run that swaps it to false owes the
// helper exactly one token on wake.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// task is one Run: immutable once published, except for its counters
// and the error slot.
type task struct {
	n    int
	fn   func(i int) error // nil marks the stop task Close publishes
	next atomic.Int64      // next index to claim
	left atomic.Int64      // indices not yet finished

	mu    sync.Mutex
	errAt int
	err   error
}

// NewTeam returns a team of at most jobs workers, the caller included
// (jobs <= 0 means GOMAXPROCS). No helper starts until a Run needs one.
func NewTeam(jobs int) *Team {
	return &Team{jobs: Workers(jobs), fin: make(chan struct{}, 1)}
}

// Workers resolves a worker-count knob: jobs <= 0 means GOMAXPROCS.
func Workers(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// Each runs fn(i) for every i in [0, n) on a one-shot team of at most
// jobs workers (jobs <= 0 means GOMAXPROCS), under Team.Run's
// contract: each fn writes only its index's state, callers merge in
// index order, and the lowest-index error is returned, so no result
// depends on jobs.
func Each(n, jobs int, fn func(i int) error) error {
	t := NewTeam(min(Workers(jobs), n))
	defer t.Close()
	return t.Run(n, fn)
}

// Run calls fn(i) for every i in [0, n) on the team and returns the
// lowest-index error. With one worker, or one index, the caller runs
// the indices in order and stops at the first error; otherwise every
// index runs.
func (t *Team) Run(n int, fn func(i int) error) error {
	if t.jobs <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if t.helpers == nil {
		t.start()
	}
	k := &task{n: n, fn: fn, errAt: n}
	k.left.Store(int64(n))
	t.publish(k)
	t.work(k)
	for start := time.Now(); k.left.Load() != 0 && time.Since(start) < spinWindow; runtime.Gosched() {
		for i := 0; i < spinPolls && k.left.Load() != 0; i++ {
		}
	}
	<-t.fin
	return k.err
}

// Close stops the helpers and waits for them to exit. A later Run
// starts a fresh set; Close on an idle team is a no-op.
func (t *Team) Close() {
	if t.helpers == nil {
		return
	}
	t.publish(&task{})
	t.exited.Wait()
	t.helpers = nil
}

// start launches the jobs-1 helpers; the caller is the last worker.
func (t *Team) start() {
	t.cur.Store(nil)
	t.helpers = make([]*helper, t.jobs-1)
	t.exited.Add(len(t.helpers))
	for i := range t.helpers {
		h := &helper{wake: make(chan struct{}, 1)}
		t.helpers[i] = h
		go t.help(h)
	}
}

// publish makes k the current task and wakes every blocked helper.
func (t *Team) publish(k *task) {
	t.cur.Store(k)
	for _, h := range t.helpers {
		if h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// help is a helper's loop: work each new task until the stop task.
func (t *Team) help(h *helper) {
	defer t.exited.Done()
	var last *task
	for {
		k := t.await(h, last)
		if k.fn == nil {
			return
		}
		t.work(k)
		last = k
	}
}

// await returns the first task newer than last: it polls for
// spinWindow, then blocks until publish wakes it.
func (t *Team) await(h *helper, last *task) *task {
	for start := time.Now(); time.Since(start) < spinWindow; runtime.Gosched() {
		for range spinPolls {
			if k := t.cur.Load(); k != last {
				return k
			}
		}
	}
	for {
		h.parked.Store(true)
		if k := t.cur.Load(); k != last {
			if !h.parked.CompareAndSwap(true, false) {
				<-h.wake // publish swapped it first and sent a token
			}
			return k
		}
		<-h.wake
	}
}

// work claims and runs k's indices until none is left; whoever
// finishes the last index sends the Run's one token on fin.
func (t *Team) work(k *task) {
	for {
		i := int(k.next.Add(1)) - 1
		if i >= k.n {
			return
		}
		if err := k.fn(i); err != nil {
			k.mu.Lock()
			if i < k.errAt {
				k.errAt, k.err = i, err
			}
			k.mu.Unlock()
		}
		if k.left.Add(-1) == 0 {
			t.fin <- struct{}{}
		}
	}
}
