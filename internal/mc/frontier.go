package mc

import (
	"runtime"
	"sync"
)

// This file lets Explore run schedules on every core and still report
// exactly what a one-core search reports. Two facts make that safe: a
// run is a pure function of (test, config, prefix) — a worker's rewound
// machine is a new one, bit for bit — and every prefix the search queues
// is run exactly once, in LIFO order, unless MaxRuns stops the search. So
// a run may execute early, on any goroutine; only its commit — counting
// it, judging it, queueing its siblings — must happen in the order the
// sequential search runs it, and that stays the one loop in Explore. The
// frontier is that loop's stack, shared with GOMAXPROCS−1 helper
// goroutines, each of which runs the newest queued prefix nobody has
// started (the one the committer pops next) on a worker of its own.

// A job is one queued prefix and, once run, what a worker made of it.
// Jobs, records and state sets (a search's expanded states, a worker's
// clean ones) outlive the Explore call that used them: a popped job, a
// committed record and a finished search's or worker's set, emptied, go
// back to a pool, and the next call, on any goroutine, reuses them, so the
// search's DFS depth is paid for once.
type job struct {
	prefix   []int
	clean    bool  // the run that recorded the prefix had no violation
	state    uint8 // queued, running or ran
	res      *RunResult
	err      error
	panicked any // a panic the run did not recover, re-raised at commit
}

var (
	jobs      = sync.Pool{New: func() any { return &job{prefix: make([]int, 0, DefaultMaxChoices)} }}
	records   sync.Pool // of *RunResult
	stateSets = sync.Pool{New: func() any { return map[uint64]bool{} }}
)

const (
	queued uint8 = iota
	running
	ran
)

// frontier is the search's stack of queued jobs. Only the committer
// pushes and pops; helpers start jobs and finish them, under mu.
type frontier struct {
	t       *Test
	rc      RunConfig
	mu      sync.Mutex
	cond    sync.Cond // broadcast when jobs are queued, when one has run, and at close
	jobs    []*job
	closed  bool
	helpers sync.WaitGroup
	own     *worker // the committer's: pop and minimize run on it
}

// newFrontier queues the root and starts the helpers; close stops them.
func newFrontier(t *Test, rc RunConfig) *frontier {
	f := &frontier{t: t, rc: rc, jobs: append(make([]*job, 0, 2*DefaultMaxChoices), jobs.Get().(*job))}
	f.cond.L = &f.mu
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		f.helpers.Add(1)
		go f.help()
	}
	return f
}

// close returns once every helper has exited, and every worker's machine
// is closed: a helper finishes the run it is in, starts no other and
// closes its own. The jobs a cut search left queued, and the results
// nobody committed, go back to their pools.
func (f *frontier) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	f.helpers.Wait()
	if f.own != nil {
		f.own.close()
	}
	for _, j := range f.jobs {
		if j.res != nil {
			records.Put(j.res)
		}
		*j = job{prefix: j.prefix[:0]}
		jobs.Put(j)
	}
}

func (f *frontier) help() {
	defer f.helpers.Done()
	var w *worker
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.closed {
		if j := f.unstarted(); j != nil {
			f.run(j, &w)
		} else {
			f.cond.Wait()
		}
	}
	if w != nil {
		w.close()
	}
}

// push queues, for each sibling (i, alt), the choices res took before
// choice point i and then alt, the last popped first, marked clean if res
// has no violation; then it hands the committed res back to the pool for
// a later run to record itself in.
func (f *frontier) push(res *RunResult, siblings [][2]int) {
	f.mu.Lock()
	for _, s := range siblings {
		j := jobs.Get().(*job)
		j.prefix = append(append(j.prefix, res.Taken[:s[0]]...), s[1])
		j.clean = len(res.Violations) == 0
		f.jobs = append(f.jobs, j)
	}
	f.mu.Unlock()
	records.Put(res)
	if len(siblings) > 0 {
		f.cond.Broadcast()
	}
}

// pop recycles the newest job and returns its prefix's length and result.
// It runs the job itself if no helper has started it; while a helper still
// is, it runs the newest unstarted job instead of waiting.
func (f *frontier) pop() (int, *RunResult, error) {
	f.mu.Lock()
	j := f.jobs[len(f.jobs)-1]
	f.jobs[len(f.jobs)-1] = nil
	f.jobs = f.jobs[:len(f.jobs)-1]
	for j.state != ran {
		if j.state == queued {
			f.run(j, &f.own)
		} else if o := f.unstarted(); o != nil {
			f.run(o, &f.own)
		} else {
			f.cond.Wait()
		}
	}
	f.mu.Unlock()
	if j.panicked != nil {
		panic(j.panicked)
	}
	n, res, err := len(j.prefix), j.res, j.err
	*j = job{prefix: j.prefix[:0]}
	jobs.Put(j)
	return n, res, err
}

// unstarted returns the newest queued job nobody has started, or nil.
func (f *frontier) unstarted() *job {
	for i := len(f.jobs) - 1; i >= 0; i-- {
		if f.jobs[i].state == queued {
			return f.jobs[i]
		}
	}
	return nil
}

// run executes j on *w, building the worker first if it has none. mu is
// held on entry and on return, and released meanwhile.
func (f *frontier) run(j *job, w **worker) {
	j.state = running
	res, _ := records.Get().(*RunResult) // nil if the pool is empty
	f.mu.Unlock()
	defer func() {
		j.panicked = recover()
		f.mu.Lock()
		j.state = ran
		f.cond.Broadcast()
	}()
	var wk *worker
	if wk, j.err = f.worker(w); j.err == nil {
		wk.rec.clean, wk.rec.cleanPrefix = wk.clean, j.clean
		j.res = wk.run(j.prefix, res)
		wk.rec.clean = nil
	}
}

// worker returns *w, building it if it is nil.
func (f *frontier) worker(w **worker) (_ *worker, err error) {
	if *w == nil {
		*w, err = newWorker(f.t, f.rc)
	}
	return *w, err
}
