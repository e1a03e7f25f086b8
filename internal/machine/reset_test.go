package machine

import (
	"reflect"
	"testing"

	"lazyrc/internal/protocol"
	"lazyrc/internal/stats"
)

// late answers every choice with its last alternative: the engine fires
// the newest of tied events, and the mesh holds every message longest, so
// the per-channel entry floors the explorer keeps are in use.
type late struct{}

func (late) Choose(n int) int { return n - 1 }

// look is what TestResetIsNew compares: the state hash, the state dump,
// the clock, the event count, the footprint, the nonzero bytes of shared
// memory, the statistics and the contention and traffic reports.
type look struct {
	hash                uint64
	dump                string
	now, events, foot   uint64
	nonzero             int
	procs               []stats.Proc
	contention, traffic string
}

func lookAt(m *Machine) look {
	nonzero := 0
	for _, b := range m.backing {
		if b != 0 {
			nonzero++
		}
	}
	return look{m.StateHash(), m.DumpState(), m.Eng.Now(), m.Eng.Events(), m.Footprint(), nonzero,
		append([]stats.Proc(nil), m.Stats.Procs...), m.ContentionReport(), m.TrafficReport()}
}

// TestResetIsNew: a machine rewound after a run stopped midway — with
// transactions open, messages in flight, contexts parked and a family's
// home state allocated — looks like the machine New builds, and a second
// run of each ends alike.
func TestResetIsNew(t *testing.T) {
	for _, proto := range protocol.Names() {
		t.Run(proto, func(t *testing.T) {
			fresh, used := small(t, proto), small(t, proto)
			for _, m := range []*Machine{fresh, used} {
				m.Eng.SetChooser(late{})
				if err := m.Net.SetExplorer(late{}, []uint64{0, 3}); err != nil {
					t.Fatal(err)
				}
			}
			stopMidway(t, used)
			used.Reset()
			if got, want := lookAt(used), lookAt(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("reset machine %+v, new %+v", got, want)
			}
			stopMidway(t, fresh)
			stopMidway(t, used)
			if got, want := lookAt(used), lookAt(fresh); !reflect.DeepEqual(got, want) {
				t.Errorf("second run on the reset machine %+v, on a new one %+v", got, want)
			}
		})
	}
}
