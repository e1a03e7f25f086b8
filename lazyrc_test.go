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

// ExampleRunApp runs one of the paper's workloads and verifies it.
func ExampleRunApp() {
	app, err := lazyrc.NewApp("gauss", lazyrc.ScaleTiny)
	if err != nil {
		panic(err)
	}
	m, err := lazyrc.RunApp(lazyrc.DefaultConfig(8), "lrc", app)
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", err == nil, "finished:", m.Stats.ExecutionTime() > 0)
	// Output: verified: true finished: true
}

// ExampleProtocols lists the six protocols under evaluation.
func ExampleProtocols() {
	fmt.Println(lazyrc.Protocols())
	// Output: [sc erc lrc lrc-ext tardis tardis2]
}

func TestAppNamesStable(t *testing.T) {
	names := lazyrc.AppNames()
	if len(names) != 7 {
		t.Fatalf("apps = %v, want the paper's seven", names)
	}
}

func TestFacadeScaleRoundTrip(t *testing.T) {
	for _, s := range []lazyrc.Scale{lazyrc.ScaleTiny, lazyrc.ScaleSmall, lazyrc.ScaleMedium, lazyrc.ScalePaper} {
		got, err := lazyrc.ParseScale(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
}

func TestFacadeConfigs(t *testing.T) {
	d := lazyrc.DefaultConfig(64)
	f := lazyrc.FutureConfig(64)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.LineSize <= d.LineSize || f.MemSetup <= d.MemSetup {
		t.Fatal("future machine must have longer lines and higher latency")
	}
}

func TestEvaluatorThroughFacade(t *testing.T) {
	e := lazyrc.NewEvaluator(lazyrc.ScaleTiny, 4)
	r := e.Get("default", "fft", "lrc")
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.ExecCycles == 0 || r.MissRate <= 0 {
		t.Fatalf("implausible run: %+v", r)
	}
}

func TestRunAppRejectsBadProtocol(t *testing.T) {
	app, err := lazyrc.NewApp("fft", lazyrc.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazyrc.RunApp(lazyrc.DefaultConfig(4), "mesi", app); err == nil {
		t.Fatal("bad protocol accepted")
	}
}

func TestNewAppRejectsUnknown(t *testing.T) {
	if _, err := lazyrc.NewApp("raytrace", lazyrc.ScaleTiny); err == nil {
		t.Fatal("unknown app accepted")
	}
}
