package lazyrc_test

import (
	"fmt"
	"testing"

	"lazyrc"
)

// ExampleNewMachine builds a 4-processor lazy-RC machine and runs a
// lock-protected counter on it.
func ExampleNewMachine() {
	m, err := lazyrc.NewMachine(lazyrc.DefaultConfig(4), "lrc")
	if err != nil {
		panic(err)
	}
	counter := m.AllocI64(1)
	lock := m.NewLock()
	m.Run(func(p *lazyrc.Proc) {
		for i := 0; i < 3; i++ {
			p.Acquire(lock)
			p.WriteI64(counter.At(0), p.ReadI64(counter.At(0))+1)
			p.Release(lock)
		}
	})
	fmt.Println("counter:", counter.Peek(0))
	// Output: counter: 12
}

// ExampleProtocols lists the five protocols under evaluation.
func ExampleProtocols() {
	fmt.Println(lazyrc.Protocols())
	// Output: [sc erc lrc lrc-ext tardis]
}

// TestFacadeConfigs: the facade's configuration is the paper's Table 1
// machine (internal/config pins every value, and the §4.3 preset).
func TestFacadeConfigs(t *testing.T) {
	d := lazyrc.DefaultConfig(64)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Procs != 64 || d.LineSize != 128 || d.CacheSize != 128<<10 {
		t.Fatalf("DefaultConfig(64) is not Table 1: %+v", d)
	}
}
