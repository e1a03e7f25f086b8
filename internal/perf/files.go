package perf

import (
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
)

// WriteFile creates path, lets write fill it, and closes it, returning
// the first error — the create → write → close sequence every CLI output
// file (exports, reports, traces, profiles) goes through.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// StartProfiles starts a Go CPU profile into cpuPath and arranges a heap
// profile into memPath; an empty path skips that profile. The returned
// stop function finishes both and must run before the process exits —
// callers with explicit os.Exit paths call it there rather than defer it.
// A profile that cannot be finished is logged, not returned: by then the
// CLI has nothing left to do with the error but print it.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Print(err)
			}
		}
		if memPath != "" {
			runtime.GC()
			if err := WriteFile(memPath, pprof.WriteHeapProfile); err != nil {
				log.Print(err)
			}
		}
	}, nil
}
