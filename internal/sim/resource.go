package sim

// Resource models a FIFO-serialized hardware unit (a NIC port, a memory
// module, a bus, a protocol processor) by tracking the time at which it
// next becomes free. Acquire returns the interval during which the caller
// occupies the unit; queueing delay is max(0, freeAt - request time).
//
// Because the whole simulation is single-threaded and deterministic,
// occupancy can be resolved eagerly at request time: the caller schedules
// its continuation at the returned end time.
//
// The zero value is a resource free at time zero.
type Resource struct {
	freeAt Time

	// Busy accumulates total occupied cycles, Waited total queueing
	// delay imposed on requesters, and Uses the request count. They are
	// exported through accessor methods for contention reporting.
	busy   uint64
	waited uint64
	uses   uint64
}

// Acquire reserves the resource for dur cycles starting no earlier than
// at. It returns the actual [start, end) occupancy interval.
func (r *Resource) Acquire(at Time, dur uint64) (start, end Time) {
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	r.waited += start - at
	r.uses++
	return start, end
}

// AcquireWindow reserves the resource for dur cycles for an operation
// whose natural completion time is naturalEnd (i.e., the operation would
// occupy [naturalEnd-dur, naturalEnd) if uncontended). It returns the
// actual end time, which equals naturalEnd when there is no contention.
// This models a message streaming into a receiver NIC: the tail arrives at
// naturalEnd unless an earlier message still occupies the port.
func (r *Resource) AcquireWindow(naturalEnd Time, dur uint64) (end Time) {
	start := Time(0)
	if naturalEnd > dur {
		start = naturalEnd - dur
	}
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	if end > naturalEnd {
		r.waited += end - naturalEnd
	}
	r.uses++
	return end
}

// FreeAt returns the time at which the resource next becomes free.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Busy returns total occupied cycles.
func (r *Resource) Busy() uint64 { return r.busy }

// Waited returns total queueing delay imposed on requesters.
func (r *Resource) Waited() uint64 { return r.waited }

// Uses returns the number of Acquire/AcquireWindow calls.
func (r *Resource) Uses() uint64 { return r.uses }
