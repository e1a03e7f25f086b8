// Package apps re-implements the paper's seven SPLASH-suite workloads as
// real computations over the simulated shared address space: every shared
// load, store, and synchronization operation is played through the
// machine's timing model, and every application verifies its numerical
// result against a serial reference — the coherence protocols must not
// corrupt a properly synchronized program.
//
// Input sizes are configurable through Scale. The paper itself notes
// that its inputs (and its 128 KB caches) are scaled down from production
// sizes to keep simulation tractable while preserving capacity and
// conflict misses; the Tiny/Small/Medium scales here follow the same
// philosophy one step further for a pure-Go simulator, and ScalePaper
// reproduces the published input sizes.
package apps

import (
	"fmt"
	"slices"
	"sort"

	"lazyrc/internal/machine"
)

// App is one workload instance: Setup allocates and initializes shared
// data directly (untimed, like a program's pre-parallel phase), Worker
// runs on every simulated processor, and Verify checks the final shared
// state against a serial reference.
type App interface {
	// Name returns the workload's name as used in the paper's tables.
	Name() string
	// Setup allocates shared data on m and initializes it.
	Setup(m *machine.Machine)
	// Worker executes the workload on processor p. It is called once
	// per processor, concurrently in simulated time.
	Worker(p *machine.Proc)
	// Verify checks the computation's result, returning a description
	// of the first discrepancy.
	Verify() error
}

// Scale selects an input size.
type Scale int

const (
	// Tiny runs in milliseconds — unit tests.
	Tiny Scale = iota
	// Small runs in tenths of seconds — benchmarks and quick sweeps.
	Small
	// Medium runs in seconds — the default for regenerating the paper's
	// tables and figures.
	Medium
	// Paper uses the published input sizes (448×448 matrices, 64K-point
	// FFT, 4K bodies, 40K particles); minutes of wall-clock per run.
	Paper
)

var scaleNames = [...]string{"tiny", "small", "medium", "paper"}

// String returns the scale mnemonic.
func (s Scale) String() string {
	if uint(s) < uint(len(scaleNames)) {
		return scaleNames[s]
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts a mnemonic to a Scale.
func ParseScale(s string) (Scale, error) {
	if i := slices.Index(scaleNames[:], s); i >= 0 {
		return Scale(i), nil
	}
	return 0, fmt.Errorf("apps: unknown scale %q (want tiny, small, medium, paper)", s)
}

type factory func(Scale) App

var registry = map[string]factory{
	"gauss":      func(s Scale) App { return NewGauss(s) },
	"fft":        func(s Scale) App { return NewFFT(s) },
	"blu":        func(s Scale) App { return NewBLU(s) },
	"barnes-hut": func(s Scale) App { return NewBarnes(s) },
	"cholesky":   func(s Scale) App { return NewCholesky(s) },
	"locusroute": func(s Scale) App { return NewLocus(s) },
	"mp3d":       func(s Scale) App { return NewMp3d(s) },
}

// New instantiates the named workload at the given scale.
func New(name string, scale Scale) (App, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (want one of %v)", name, Names())
	}
	return f(scale), nil
}

// TimingDependent reports whether the workload's final memory image
// depends on the interleaving of its processors. The three
// lock-structured workloads fold acquisition order into their results —
// barnes-hut's tree shape follows body insertion order, locusroute
// commits whichever route won the cost-array race, mp3d's reservoir
// collisions depend on cell-lock order — so two runs that differ only
// in message timing produce different, equally valid images (each still
// passes Verify). The barrier-structured solvers compute the same bits
// under any timing, which makes them exact end-state oracles for fault
// injection: a faulted run must reproduce the fault-free image.
func TimingDependent(name string) bool {
	switch name {
	case "barnes-hut", "locusroute", "mp3d":
		return true
	}
	return false
}

// Names lists the workloads in the paper's table order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lcg is a tiny deterministic pseudo-random generator used for input
// generation: the same inputs on every run, independent of Go runtime
// changes to math/rand.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 17)
}

// f64 returns a float in [0, 1).
func (r *lcg) f64() float64 { return float64(r.next()%(1<<52)) / (1 << 52) }

// intn returns an int in [0, n).
func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }
