// Falsesharing demonstrates the paper's headline effect: processors
// writing disjoint words of the same cache line ping-pong the block
// under eager release consistency, while the lazy protocol lets them all
// hold writable copies until their next acquire.
//
// The program runs the same kernel — every processor repeatedly updating
// its own slot of one packed (then one padded) array — under ERC and LRC
// and prints the miss counts and execution times side by side. It exits
// nonzero unless LRC takes fewer misses than ERC on the packed layout.
//
//	go run ./examples/falsesharing
package main

import (
	"fmt"
	"log"

	"lazyrc"
)

const (
	procs  = 16
	rounds = 200
)

func run(proto string, padded bool) (execTime, misses uint64) {
	cfg := lazyrc.DefaultConfig(procs)
	m, err := lazyrc.NewMachine(cfg, proto)
	if err != nil {
		log.Fatal(err)
	}
	stride := 1
	if padded {
		stride = cfg.LineSize / 8 // one slot per cache line
	}
	slots := m.AllocF64(procs * stride)
	m.Run(func(p *lazyrc.Proc) {
		slot := slots.At(p.ID() * stride)
		for r := 0; r < rounds; r++ {
			p.WriteF64(slot, float64(r))
			p.Compute(50)
		}
	})
	for i := range m.Stats.Procs {
		misses += m.Stats.Procs[i].TotalMisses()
	}
	return m.Stats.ExecutionTime(), misses
}

func main() {
	fmt.Printf("%d processors, %d rounds of one-word updates each\n\n", procs, rounds)
	fmt.Printf("%-28s %12s %10s\n", "layout / protocol", "exec cycles", "misses")
	packed := map[string]uint64{}
	for _, padded := range []bool{false, true} {
		layout := "packed (false sharing)"
		if padded {
			layout = "padded (line per slot)"
		}
		for _, proto := range []string{"erc", "lrc"} {
			t, miss := run(proto, padded)
			fmt.Printf("%-28s %12d %10d\n", layout+" / "+proto, t, miss)
			if !padded {
				packed[proto] = miss
			}
		}
	}
	fmt.Println("\nWith the packed layout, ERC invalidates every other writer on")
	fmt.Println("each update; LRC admits all writers concurrently and only")
	fmt.Println("invalidates at acquires. Padding removes the effect entirely.")
	if packed["lrc"] >= packed["erc"] {
		log.Fatalf("packed layout: lrc took %d misses, erc %d; the lazy protocol should take fewer",
			packed["lrc"], packed["erc"])
	}
}
