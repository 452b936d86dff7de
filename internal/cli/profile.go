package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags registers the -cpuprofile/-memprofile flags shared by
// performance-sensitive subcommands and returns a start function. The
// start function begins any requested profiling and returns a stop
// function that must run before exit: it stops the CPU profile and
// snapshots the allocation profile (after a GC, so live-heap numbers are
// stable). Hot-path work should start from a recorded profile, not from
// guesswork — this is the recorder.
func profileFlags(fs *flag.FlagSet) (start func() (stop func() error, err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to `file` (inspect with `go tool pprof`)")
	mem := fs.String("memprofile", "", "write an allocation profile to `file` on exit")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, fmt.Errorf("-cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("-cpuprofile: %w", err)
			}
			cpuFile = f
		}
		return func() error {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return fmt.Errorf("-cpuprofile: %w", err)
				}
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					return fmt.Errorf("-memprofile: %w", err)
				}
				runtime.GC() // settle live-heap numbers before the snapshot
				err = pprof.Lookup("allocs").WriteTo(f, 0)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return fmt.Errorf("-memprofile: %w", err)
				}
			}
			return nil
		}, nil
	}
}
