package mc

import (
	"runtime"
	"sync"
)

// This file lets Explore run schedules on every core and still report
// exactly what a one-core search reports. Two facts make that safe:
// RunOnce is a pure function of (test, config, prefix), and every prefix
// the search queues is run exactly once, in LIFO order, unless MaxRuns
// stops the search. So a run may execute early, on any goroutine; only
// its commit — counting it, judging it, queueing its siblings — must
// happen in the order the sequential search runs it, and that stays the
// one loop in Explore. The frontier is that loop's stack, shared with
// GOMAXPROCS−1 helper goroutines, each of which runs the newest queued
// prefix nobody has started: the one the committer pops next.

// A job is one queued prefix and, once run, what RunOnce made of it.
type job struct {
	prefix   []int
	state    uint8 // queued, running or ran
	res      *RunResult
	err      error
	panicked any // a panic RunOnce did not recover, re-raised at commit
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

// close returns once every helper has exited: a helper finishes the run
// it is in and starts no other. Results nobody committed are dropped.
func (f *frontier) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	f.helpers.Wait()
}

func (f *frontier) help() {
	defer f.helpers.Done()
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.closed {
		if j := f.unstarted(); j != nil {
			f.run(j)
		} else {
			f.cond.Wait()
		}
	}
}

// push queues prefixes; the last is popped first.
func (f *frontier) push(prefixes ...[]int) {
	if len(prefixes) == 0 {
		return
	}
	js := make([]job, len(prefixes))
	f.mu.Lock()
	for i, p := range prefixes {
		js[i].prefix = p
		f.jobs = append(f.jobs, &js[i])
	}
	f.mu.Unlock()
	f.cond.Broadcast()
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
			f.run(j)
		} else if o := f.unstarted(); o != nil {
			f.run(o)
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

// run executes j. mu is held on entry and on return, and released
// meanwhile.
func (f *frontier) run(j *job) {
	j.state = running
	f.mu.Unlock()
	defer func() {
		j.panicked = recover()
		f.mu.Lock()
		j.state = ran
		f.cond.Broadcast()
	}()
	j.res, j.err = RunOnce(f.t, f.rc, j.prefix)
}
