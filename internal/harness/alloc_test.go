package harness

import (
	"runtime"
	"testing"

	"uno/internal/eventq"
	"uno/internal/workload"
)

// TestSamplerTickAllocFree extends the PR-2 allocation budget to the
// measurement plane: once a RateSampler's series are built, each periodic
// tick (poll every connection's byte counters, fold them into fixed-size
// TimeSeries bins, rearm the timer) must allocate nothing. The sim is run
// to quiescence first so the measured cycles contain only sampler work.
func TestSamplerTickAllocFree(t *testing.T) {
	sim := MustNewSim(7, smallTopo(), StackUno())
	specs := []workload.FlowSpec{
		{Src: 4, Dst: 0, Size: 1 << 20},
		{Src: 8, Dst: 0, Size: 1 << 20},
	}
	conns := sim.Schedule(specs)
	interval := 250 * eventq.Microsecond
	stop := 40 * eventq.Second // far past anything this test runs
	rs := sim.SampleRates(conns, interval, stop)

	// Let the flows finish and several ticks fire (warming the timer and
	// any lazily grown state), then measure pure tick cycles.
	sim.Run(20 * eventq.Millisecond)
	if sim.Pending() != 0 {
		t.Fatalf("%d flows still pending before measurement", sim.Pending())
	}
	sched := sim.Net.Sched
	allocs := testing.AllocsPerRun(200, func() {
		sched.RunUntil(sched.Now() + interval)
	})
	if allocs != 0 {
		t.Fatalf("sampler tick allocates %v objects per interval, want 0", allocs)
	}
	for _, series := range rs.Series {
		if series.Bins() == 0 {
			t.Fatal("sampler recorded no bins")
		}
	}
}

// TestScheduleAllocsIndependentOfSpecCount: scheduling flow starts on the
// classic engine allocates a fixed number of objects per call, not one
// closure per flow. The scheduler's free list is warmed first, so event
// slots come from it and the measurement sees only Schedule's own
// allocations.
func TestScheduleAllocsIndependentOfSpecCount(t *testing.T) {
	allocs := func(n int) uint64 {
		sim := MustNewSim(7, smallTopo(), StackUno())
		sched := sim.Net.Sched
		for i := 0; i < 2*n; i++ {
			sched.ScheduleArg(sched.Now()+eventq.Microsecond, func(any) {}, nil)
		}
		sim.Drain()
		hosts := len(sim.Topo.Hosts)
		specs := make([]workload.FlowSpec, n)
		for i := range specs {
			// At least a microsecond out, past the level-0 wheel window,
			// whose per-slot arrays would otherwise grow with n.
			specs[i] = workload.FlowSpec{
				Src: i % hosts, Dst: (i + 1) % hosts, Size: 4096,
				Start: sched.Now() + eventq.Time(1+i%4)*eventq.Microsecond,
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim.Schedule(specs)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	few, many := allocs(10), allocs(1000)
	if many != few {
		t.Fatalf("Schedule allocated %d objects for 1000 specs and %d for 10", many, few)
	}
}
