package directory

import "fmt"

// This file holds the home-side state of the timestamp protocol
// (tardis). Where the invalidation protocols track *who* has a
// copy (sharer sets, fanned-out write notices), timestamp coherence
// tracks *until when* copies are readable: a per-block write timestamp
// and read-lease end, plus at most one exclusive owner. There is no
// sharer list at all — readers are never recorded, and their copies
// expire locally by timestamp comparison instead of by message. The
// lease table therefore lives beside, not inside, the entry map: a
// block under timestamp coherence has a Lease and no Entry.

// NoOwner is the Lease.Owner value meaning no node holds the block
// exclusively.
const NoOwner = -1

// Lease is one block's home-side timestamp record.
type Lease struct {
	// Wts is the write timestamp of the block's current version: the
	// logical time at which the last write (grant) to the block is
	// ordered.
	Wts uint64
	// Rts is the end of the block's read lease: any copy handed out may
	// be read at program timestamps up to and including Rts. Invariant:
	// Wts <= Rts.
	Rts uint64
	// Owner is the node holding the block exclusively (its copy
	// supersedes home memory), or NoOwner. While an owner exists the
	// home must recall the block before serving any other request.
	Owner int
}

// Lease returns the lease record for block, creating a zero lease with
// no owner on first touch.
func (d *Directory) Lease(block uint64) *Lease {
	l := d.leases[block]
	if l == nil {
		if n := len(d.spare); n > 0 {
			l, d.spare = d.spare[n-1], d.spare[:n-1]
			*l = Lease{Owner: NoOwner}
		} else {
			l = &Lease{Owner: NoOwner}
		}
		if d.leases == nil {
			d.leases = make(map[uint64]*Lease)
		}
		d.leases[block] = l
	}
	return l
}

// VisitLeases iterates all lease records in unspecified order. Use only
// for diagnostics and end-of-run sweeps, never for simulated behaviour.
func (d *Directory) VisitLeases(fn func(block uint64, l *Lease)) {
	for b, l := range d.leases {
		fn(b, l)
	}
}

// CheckLease verifies l's invariants if checking is enabled, panicking
// with a description on violation. The timestamp protocol calls it
// after each home-side transition.
func (d *Directory) CheckLease(block uint64, l *Lease) {
	if !d.check {
		return
	}
	if err := d.ValidateLease(l); err != nil {
		panic(fmt.Sprintf("directory: block %d: %v", block, err))
	}
}

// ValidateLease checks a lease's structural invariants.
func (d *Directory) ValidateLease(l *Lease) error {
	if l.Wts > l.Rts {
		return fmt.Errorf("lease wts %d > rts %d", l.Wts, l.Rts)
	}
	if l.Owner != NoOwner && (l.Owner < 0 || l.Owner >= d.nprocs) {
		return fmt.Errorf("lease owner %d out of range [0,%d)", l.Owner, d.nprocs)
	}
	return nil
}
