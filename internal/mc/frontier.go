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
type job struct {
	prefix   []int
	state    uint8 // queued, running or ran
	res      *RunResult
	err      error
	panicked any // a panic the run did not recover, re-raised at commit
}

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
	own     *worker      // the committer's: pop and minimize run on it
	free    []*RunResult // committed results, whose records runs reuse
}

// newFrontier starts the helpers; close stops them.
func newFrontier(t *Test, rc RunConfig) *frontier {
	f := &frontier{t: t, rc: rc}
	f.cond.L = &f.mu
	for i := 1; i < runtime.GOMAXPROCS(0); i++ {
		f.helpers.Add(1)
		go f.help()
	}
	return f
}

// close returns once every helper has exited, and every worker's machine
// is closed: a helper finishes the run it is in, starts no other and
// closes its own. Results nobody committed are dropped.
func (f *frontier) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	f.helpers.Wait()
	if f.own != nil {
		f.own.m.Close()
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
		w.m.Close()
	}
}

// push queues prefixes, the last popped first, and takes back done, a
// committed result nobody reads any more (nil for none), for a later run
// to record itself in.
func (f *frontier) push(done *RunResult, prefixes ...[]int) {
	js := make([]job, len(prefixes))
	f.mu.Lock()
	if done != nil {
		f.free = append(f.free, done)
	}
	for i, p := range prefixes {
		js[i].prefix = p
		f.jobs = append(f.jobs, &js[i])
	}
	f.mu.Unlock()
	if len(prefixes) > 0 {
		f.cond.Broadcast()
	}
}

// len is the number of queued jobs. Only the committer changes it, so it
// reads it without the lock.
func (f *frontier) len() int { return len(f.jobs) }

// pop takes the newest job and returns its prefix and result. It runs
// the job itself if no helper has started it; while a helper still is,
// it runs the newest unstarted job instead of waiting.
func (f *frontier) pop() ([]int, *RunResult, error) {
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
	return j.prefix, j.res, j.err
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
	var res *RunResult
	if n := len(f.free); n > 0 {
		res, f.free = f.free[n-1], f.free[:n-1]
	}
	f.mu.Unlock()
	defer func() {
		j.panicked = recover()
		f.mu.Lock()
		j.state = ran
		f.cond.Broadcast()
	}()
	var wk *worker
	if wk, j.err = f.worker(w); j.err == nil {
		j.res = wk.run(j.prefix, res)
	}
}

// worker returns *w, building it if it is nil.
func (f *frontier) worker(w **worker) (*worker, error) {
	if *w == nil {
		nw, err := newWorker(f.t, f.rc)
		if err != nil {
			return nil, err
		}
		*w = nw
	}
	return *w, nil
}
