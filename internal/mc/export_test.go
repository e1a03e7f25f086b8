package mc

import (
	"sync/atomic"
	"testing"

	"lazyrc/internal/machine"
)

// checkDigests makes every choice point of every run, until t ends,
// compare the state hash of the digests the machine kept with the hash of
// the machine folded afresh, and fail t at the first that differ. It
// returns the count of choice points checked. The check moves nothing: a
// fresh fold leaves the digests as correct kept ones are, and the node of
// a running event stale, as the hash found it.
func checkDigests(t *testing.T) *atomic.Int64 {
	var checked atomic.Int64
	var failed atomic.Bool
	testHookChoice = func(m *machine.Machine) {
		checked.Add(1)
		kept := m.StateHash()
		m.Env.ForgetDigests()
		if fresh := m.StateHash(); fresh != kept && !failed.Swap(true) {
			t.Errorf("%s at cycle %d: the kept digests hash %#x, a fresh fold %#x",
				m.Nodes[0].Proto.Name(), m.Eng.Now(), kept, fresh)
		}
	}
	t.Cleanup(func() { testHookChoice = nil })
	return &checked
}
