package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"uno/internal/eventq"
	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/transport"
)

// outcome is everything one repeat of a workload produced: host-side
// timings and memory, and the simulation's own outputs.
type outcome struct {
	genS, newSimS, scheduleS, setupS, runS, wallS float64
	allocBytes, peakRSS                           uint64

	flows, completed int
	digest, events   uint64
	hops, injected   uint64
	drops            map[netsim.DropReason]uint64
	shardEvents      []uint64
	simTime          eventq.Time
	lookahead        eventq.Time
	fct              fctSummary
	conn             transport.ConnStats // summed over every connection
	fasterThanLight  int                 // completed flows faster than their propagation RTT

	core coreCounts // traced repeats only
}

// fctSummary is the simulated outcome: exact for a fixed seed.
type fctSummary struct {
	p50US, tailUS, tailPct, goodputGbps float64
}

// runOnce simulates the workload once. shards overrides the scenario's
// engine (the workers=1 check); tr wraps the stack in timing decorators;
// prof, when non-nil, receives a CPU profile of Run.
func runOnce(sc scenario, seed uint64, shards int, tr bool, prof *bytes.Buffer) (outcome, error) {
	var o outcome
	// Start every repeat from a collected heap returned to the OS, so
	// allocation, peak RSS and GC work are this repeat's own.
	debug.FreeOSMemory()
	resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t0 := time.Now()
	r := rng.New(seed)
	simSeed := r.Uint64()
	specs := sc.gen(r.Split())
	t1 := time.Now()
	stack := sc.stack()
	var pr probes
	if tr {
		pr = newProbes(topo.DefaultConfig().NumDCs)
		stack = pr.wrap(stack)
	}
	sim, err := harness.NewSimShards(simSeed, topo.DefaultConfig(), stack, shards)
	if err != nil {
		return o, fmt.Errorf("new sim: %w", err)
	}
	t2 := time.Now()
	nShards := 1
	if cl := sim.Cluster(); cl != nil {
		nShards = cl.Shards()
		o.lookahead = cl.Lookahead()
	}
	counters := make([]*netsim.CountingObserver, nShards)
	for i := range counters {
		counters[i] = netsim.NewCountingObserver()
		sim.ObserveShard(i, counters[i])
	}
	if sc.loss {
		attachLoss(sim, r.Split())
	}
	t2b := time.Now()
	conns := sim.Schedule(specs)
	t3 := time.Now()

	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return o, fmt.Errorf("cpu profile: %w", err)
		}
	}
	sim.Run(horizon)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	t4 := time.Now()

	// Harvest. Transport counters come from the slice Schedule returned:
	// on the classic engine Sim.Conns() keeps the nil placeholders it
	// copied before the flows started and would read as all zeros.
	o.flows = len(specs)
	results := sim.Results()
	o.completed = len(results)
	fcts := make([]float64, 0, len(results))
	var bytesDone int64
	var last eventq.Time
	for _, res := range results {
		fcts = append(fcts, res.FCT.Seconds()*1e6)
		bytesDone += res.Spec.Size
		last = max(last, res.Spec.Start+res.FCT)
		src, dst := sim.Topo.Hosts[res.Spec.Src].ID(), sim.Topo.Hosts[res.Spec.Dst].ID()
		if res.FCT < sim.Topo.BaseRTT(src, dst, 0, 0) {
			o.fasterThanLight++
		}
	}
	o.fct = summarize(fcts, bytesDone, last)
	for _, c := range conns {
		if c == nil {
			continue
		}
		s := c.Stats()
		o.conn.PktsSent += s.PktsSent
		o.conn.PktsRetrans += s.PktsRetrans
		o.conn.AcksReceived += s.AcksReceived
		o.conn.Timeouts += s.Timeouts
		o.conn.FastRetrans += s.FastRetrans
		o.conn.NacksReceived += s.NacksReceived
	}
	o.digest, o.events, o.simTime = sim.Digest(), sim.EventsExecuted(), sim.Now()
	o.drops = map[netsim.DropReason]uint64{}
	for _, c := range counters {
		o.hops += c.Delivered
		o.injected += c.Sent
		for reason, n := range c.Dropped {
			o.drops[reason] += n
		}
	}
	if cl := sim.Cluster(); cl != nil {
		for i := 0; i < cl.Shards(); i++ {
			o.shardEvents = append(o.shardEvents, cl.Shard(i).Sched.Executed())
		}
	} else {
		o.shardEvents = []uint64{o.events}
	}
	if tr {
		o.core = pr.merge()
	}
	t5 := time.Now()

	runtime.ReadMemStats(&ms1)
	o.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if o.peakRSS, err = readPeakRSS(); err != nil {
		return o, err
	}
	o.genS = t1.Sub(t0).Seconds()
	o.newSimS = t2.Sub(t1).Seconds()
	o.scheduleS = t3.Sub(t2b).Seconds()
	o.setupS = t3.Sub(t0).Seconds()
	o.runS = t4.Sub(t3).Seconds()
	o.wallS = t5.Sub(t0).Seconds()
	return o, nil
}

// summarize computes the simulated end-to-end metrics from the completed
// flows' FCTs (µs), their bytes, and the last completion time.
func summarize(fcts []float64, bytesDone int64, last eventq.Time) fctSummary {
	var s fctSummary
	n := len(fcts)
	if n == 0 {
		return s
	}
	slices.Sort(fcts)
	s.p50US = fcts[(n-1)/2]
	// The tail is the highest percentile with at least ten flows beyond
	// it: the 11th-largest FCT, percentile 100·(n−10)/n.
	k := max(n-11, 0)
	s.tailUS = fcts[k]
	s.tailPct = 100 * float64(k+1) / float64(n)
	if last > 0 {
		s.goodputGbps = float64(bytesDone) * 8 / last.Seconds() / 1e9
	}
	return s
}

// sameSim reports whether two repeats simulated the same thing.
func sameSim(a, b outcome) bool {
	return a.digest == b.digest && a.events == b.events && a.hops == b.hops &&
		a.completed == b.completed && a.fct == b.fct && a.conn == b.conn
}

// resetPeakRSS restarts the kernel's peak-RSS watermark (VmHWM) so the
// next reading covers one repeat rather than the process lifetime. Where
// the reset is unavailable the watermark stays process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readPeakRSS returns the kernel's peak-RSS watermark (VmHWM) in bytes.
func readPeakRSS() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
