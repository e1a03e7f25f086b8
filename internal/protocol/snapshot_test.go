package protocol

import (
	"testing"

	"lazyrc/internal/mesh"
)

type firstChoice struct{}

func (firstChoice) Choose(int) int { return 0 }

// TestStateHashIgnoresInsertionOrder: the hash is a function of the
// logical state, not of the order its tables were filled in — and of all
// of it: one sharer bit, the order of two requests waiting on one block,
// one message in flight each move it.
func TestStateHashIgnoresInsertionOrder(t *testing.T) {
	// build fills node 0's directory and request serializer and node 1's
	// transaction table block by block, in the order given; waiters is the
	// order two more requests queue up behind block 3's holder.
	build := func(order []uint64, waiters [2]int) *Env {
		env := testEnv(t, 4, "erc")
		if err := env.Net.SetExplorer(firstChoice{}, nil); err != nil {
			t.Fatal(err)
		}
		home, requester := env.Nodes[0], env.Nodes[1]
		for _, b := range order {
			e := home.Dir.Entry(b)
			e.Sharers.Add(1)
			e.Recompute()
			requester.newTxn(b).ExpectData = true
			home.home.enter(req(1, MsgReadReq, b))
		}
		for _, src := range waiters {
			home.home.enter(req(src, MsgWriteReq, 3))
		}
		return env
	}
	base := build([]uint64{3, 40, 7}, [2]int{2, 3}).StateHash()
	if got := build([]uint64{40, 7, 3}, [2]int{2, 3}).StateHash(); got != base {
		t.Fatalf("same state filled in another order hashes %#x, want %#x", got, base)
	}

	for name, change := range map[string]func(*Env){
		"sharer bit": func(env *Env) { env.Nodes[0].Dir.Peek(40).Sharers.Add(2) },
		"txn flag":   func(env *Env) { env.Nodes[1].txn(7).IsWrite = true },
		"in-flight message": func(env *Env) {
			env.Net.Send(mesh.Msg{Src: 2, Dst: 0, Kind: int(MsgReadReq), Addr: 40})
		},
	} {
		env := build([]uint64{3, 40, 7}, [2]int{2, 3})
		change(env)
		if env.StateHash() == base {
			t.Errorf("hash ignores a changed %s", name)
		}
	}
	if build([]uint64{3, 40, 7}, [2]int{3, 2}).StateHash() == base {
		t.Error("hash ignores the order of two requests waiting on one block")
	}
}

// TestQuietKindsLeaveTheFold: a delivery of a kind its family marks quiet
// does not touch the node, so its handler must change nothing the state
// hash folds — only occupy the protocol processor or memory and post a
// continuation, which touches the node when it runs.
func TestQuietKindsLeaveTheFold(t *testing.T) {
	for _, proto := range Names() {
		env := testEnv(t, 4, proto)
		n, quiet := env.Nodes[0], 0
		for k := MsgKind(0); k < numMsgKinds; k++ {
			if !n.handlers[k].quiet {
				continue
			}
			quiet++
			before := env.StateHash()
			n.deliver(mesh.Msg{Src: 1, Dst: 0, Kind: int(k), Addr: 3, Arg: wantData})
			env.ForgetDigests()
			if after := env.StateHash(); after != before {
				t.Errorf("%s: a quiet %v delivery moved the hash", proto, k)
			}
		}
		if quiet == 0 {
			t.Errorf("%s marks no kind quiet", proto)
		}
	}
}
