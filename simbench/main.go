// Command simbench is the repository's benchmark. It runs one named
// workload through the public harness.Sim surface, prints every end-to-end
// metric by name and unit, checks that the simulation's outputs are
// correct, and in traced mode adds per-layer metrics measured from outside
// the simulator. README.md in this directory documents the workloads, the
// metrics and the layer-to-end-to-end map.
//
// Usage (from the repository root):
//
//	bash simbench/run.sh --workload perm-ecmp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "measurement budget in host seconds (at least 3 timed repeats run)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "simbench: want --workload NAME --seed N --seconds S (>= 1) --trace 0|1")
		return 2
	}
	sc, err := newScenario(*name, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	// At most two goroutines simulate (the sharded workload's two
	// workers); pinning GOMAXPROCS keeps GC parallelism the same on
	// larger machines.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep, err := measure(sc, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}
