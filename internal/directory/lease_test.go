package directory

import (
	"testing"

	"lazyrc/internal/fold"
)

// Table-driven coverage of the home-side lease state machine the
// timestamp protocol (tardis) drives: each transition is
// expressed as the exact mutation the protocol performs on the Lease
// record, then checked against the expected (Wts, Rts, Owner) triple and
// the lease's structural invariants. The rules mirror the protocol
// layer: a read grant extends rts to max(rts, pts+leaseLen, wts); a
// write grant creates a version at ts = max(pts, rts+1) and takes
// ownership; an owner's returned copy (yield or eviction write-back)
// clears ownership and adopts the owner's wts as the latest version.
func TestLeaseTransitionTable(t *testing.T) {
	const leaseLen = 8

	// extend is the read/renewal grant: rts' = max(rts, pts+leaseLen, wts).
	extend := func(l *Lease, pts uint64) {
		want := pts + leaseLen
		if want < l.Wts {
			want = l.Wts
		}
		if want > l.Rts {
			l.Rts = want
		}
	}
	// grant is the write grant: ts = max(pts, rts+1), owner = src.
	grant := func(l *Lease, pts uint64, src int) {
		ts := pts
		if l.Rts+1 > ts {
			ts = l.Rts + 1
		}
		l.Wts, l.Rts, l.Owner = ts, ts, src
	}
	// adopt is the owner's copy coming home (yield or write-back): clear
	// ownership if the sender still owns, supersede wts if newer.
	adopt := func(l *Lease, src int, wts uint64) {
		if l.Owner == src {
			l.Owner = NoOwner
		}
		if wts > l.Wts {
			l.Wts = wts
			if l.Rts < l.Wts {
				l.Rts = l.Wts
			}
		}
	}

	cases := []struct {
		name    string
		start   Lease
		mutate  func(l *Lease)
		wantWts uint64
		wantRts uint64
		wantOwn int
	}{
		{
			name:    "first-read→fresh-lease",
			start:   Lease{Owner: NoOwner},
			mutate:  func(l *Lease) { extend(l, 0) },
			wantWts: 0, wantRts: leaseLen, wantOwn: NoOwner,
		},
		{
			name:    "read-at-advanced-clock→lease-covers-clock",
			start:   Lease{Wts: 5, Rts: 12, Owner: NoOwner},
			mutate:  func(l *Lease) { extend(l, 20) },
			wantWts: 5, wantRts: 28, wantOwn: NoOwner,
		},
		{
			name:    "renewal-behind-current-end→no-op",
			start:   Lease{Wts: 5, Rts: 40, Owner: NoOwner},
			mutate:  func(l *Lease) { extend(l, 3) },
			wantWts: 5, wantRts: 40, wantOwn: NoOwner,
		},
		{
			name: "read-never-shrinks-below-wts",
			// A version written at 30 with rts pinned to it: a reader at a
			// tiny clock still gets a lease ending at the version time.
			start:   Lease{Wts: 30, Rts: 30, Owner: NoOwner},
			mutate:  func(l *Lease) { extend(l, 1) },
			wantWts: 30, wantRts: 30, wantOwn: NoOwner,
		},
		{
			name:    "write-grant-orders-after-leases",
			start:   Lease{Wts: 5, Rts: 12, Owner: NoOwner},
			mutate:  func(l *Lease) { grant(l, 2, 3) },
			wantWts: 13, wantRts: 13, wantOwn: 3,
		},
		{
			name:    "write-grant-at-advanced-clock",
			start:   Lease{Wts: 5, Rts: 12, Owner: NoOwner},
			mutate:  func(l *Lease) { grant(l, 50, 1) },
			wantWts: 50, wantRts: 50, wantOwn: 1,
		},
		{
			name:    "yield-clears-owner-and-adopts-version",
			start:   Lease{Wts: 13, Rts: 13, Owner: 3},
			mutate:  func(l *Lease) { adopt(l, 3, 17) },
			wantWts: 17, wantRts: 17, wantOwn: NoOwner,
		},
		{
			name: "stale-writeback-from-past-owner-keeps-owner",
			// Node 3's eviction write-back raced with node 1's grant: 1 owns
			// now, 3's data merges but neither ownership nor the newer
			// version record moves.
			start:   Lease{Wts: 20, Rts: 20, Owner: 1},
			mutate:  func(l *Lease) { adopt(l, 3, 13) },
			wantWts: 20, wantRts: 20, wantOwn: 1,
		},
		{
			name:    "reread-after-yield→lease-past-version",
			start:   Lease{Wts: 17, Rts: 17, Owner: NoOwner},
			mutate:  func(l *Lease) { extend(l, 17) },
			wantWts: 17, wantRts: 17 + leaseLen, wantOwn: NoOwner,
		},
		{
			name:    "owner-to-owner-regrant",
			start:   Lease{Wts: 13, Rts: 13, Owner: 3},
			mutate:  func(l *Lease) { adopt(l, 3, 13); grant(l, 13, 3) },
			wantWts: 14, wantRts: 14, wantOwn: 3,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(4, true)
			l := d.Lease(7)
			*l = tc.start
			tc.mutate(l)
			d.CheckLease(7, l)
			if l.Wts != tc.wantWts || l.Rts != tc.wantRts || l.Owner != tc.wantOwn {
				t.Fatalf("lease = {wts:%d rts:%d owner:%d}, want {wts:%d rts:%d owner:%d}",
					l.Wts, l.Rts, l.Owner, tc.wantWts, tc.wantRts, tc.wantOwn)
			}
		})
	}
}

// TestLeaseValidate covers the structural invariants CheckLease enforces
// after every home-side transition.
func TestLeaseValidate(t *testing.T) {
	d := New(4, true)
	if err := d.ValidateLease(&Lease{Wts: 3, Rts: 3, Owner: NoOwner}); err != nil {
		t.Fatalf("valid lease rejected: %v", err)
	}
	if err := d.ValidateLease(&Lease{Wts: 5, Rts: 4, Owner: NoOwner}); err == nil {
		t.Fatal("wts > rts accepted")
	}
	if err := d.ValidateLease(&Lease{Wts: 1, Rts: 2, Owner: 4}); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	if err := d.ValidateLease(&Lease{Owner: -2}); err == nil {
		t.Fatal("negative non-NoOwner owner accepted")
	}
}

// TestLeaseTableLifecycle exercises the table plumbing: creation on
// first touch, peek without creation, counting, and the canonical
// snapshot being order-insensitive.
func TestLeaseTableLifecycle(t *testing.T) {
	d := New(2, true)
	if d.leases[9] != nil {
		t.Fatal("peek created a lease")
	}
	if len(d.leases) != 0 {
		t.Fatal("fresh directory has leases")
	}
	a := d.Lease(9)
	if a.Owner != NoOwner || a.Wts != 0 || a.Rts != 0 {
		t.Fatalf("first touch lease = %+v", a)
	}
	if d.Lease(9) != a {
		t.Fatal("second touch created a new record")
	}
	d.Lease(3).Wts = 1
	d.Lease(3).Rts = 2
	if len(d.leases) != 2 {
		t.Fatalf("lease count = %d, want 2", len(d.leases))
	}

	// The fold is canonical: two directories with the same records
	// touched in different orders fold alike, and one changed field shows.
	e := New(2, true)
	e.Lease(3).Wts = 1
	e.Lease(3).Rts = 2
	e.Lease(9)
	if foldSum(d) != foldSum(e) {
		t.Fatal("lease fold depends on touch order")
	}
	e.Lease(9).Owner = 1
	if foldSum(d) == foldSum(e) {
		t.Fatal("lease fold ignores the owner")
	}
}

func foldSum(d *Directory) (recs fold.Bag) {
	d.Fold(&recs)
	return recs
}
