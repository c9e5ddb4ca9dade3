package main

import (
	"fmt"
	"sort"

	"uno/internal/eventq"
	"uno/internal/failure"
	"uno/internal/harness"
	"uno/internal/rng"
	"uno/internal/topo"
	"uno/internal/workload"
)

// scenario is one workload: the protocol stack, the engine, and a flow
// generator driven only by the benchmark seed. The Sim sees nothing but the
// generated inputs: the flow specs, its RNG seed and the border-link loss
// processes, all drawn from the seed's stream.
type scenario struct {
	name   string
	stack  func() harness.Stack
	shards int // 0 = classic engine; >= 1 = per-DC sharded engine with that many workers
	// gen draws the flow specs (host indices on topo.DefaultConfig).
	gen func(r *rng.Rand) []workload.FlowSpec
	// loss, when set, puts the fig13b Gilbert-Elliott process on every
	// border link in both directions.
	loss bool
}

// horizon bounds simulated time; every flow of every workload completes
// well before it.
const horizon = eventq.Second

// size scales a workload: full is what the benchmark measures, small is
// the tiny variant the benchmark's own tests run.
type size struct {
	// The permutation: permRounds overlaid permutations, so every host
	// sends and receives that many flows, with starts uniform over
	// permWindow. In each permutation crossFlows flows per direction cross
	// the DCs, a fixed count so the seed moves which hosts pair up but not
	// how hard the border links are loaded. Intra-DC flows carry
	// permFlowBytes, cross-DC ones crossFlowBytes: an inter-DC uno+ecmp
	// flow starts with its whole size in flight, and two 2 MiB bursts
	// meeting on a border link overflow its 1 MiB queue into a loss that
	// only RTO backoff recovers, about 140 ms later. At 256 KiB four
	// bursts would have to meet within 21 µs, so the last completion and
	// the 11th-largest FCT do not hinge on whether such a stall happened.
	permRounds     int
	permWindow     eventq.Time
	permFlowBytes  int64
	crossFlows     int
	crossFlowBytes int64

	wsFlows      int   // WebSearch intra-DC flows, split over both DCs
	wanFlows     int   // Alibaba-WAN inter-DC flows, split over both directions
	rpcFlows     int   // GoogleRPC-sized intra-DC messages, split over both DCs
	maxFlowBytes int64 // mix size CDFs are truncated here
}

var (
	fullSize = size{
		permRounds: 2, permWindow: 20 * eventq.Millisecond, permFlowBytes: 4 << 20,
		crossFlows: 40, crossFlowBytes: 256 << 10,
		wsFlows: 400, wanFlows: 100, rpcFlows: 20000, maxFlowBytes: 8 << 20,
	}
	smallSize = size{
		permRounds: 1, permWindow: eventq.Millisecond, permFlowBytes: 64 << 10,
		crossFlows: 4, crossFlowBytes: 64 << 10,
		wsFlows: 24, wanFlows: 8, rpcFlows: 200, maxFlowBytes: 1 << 20,
	}
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"perm-ecmp", "perm-ecmp-shard2", "mixed-uno"}

// newScenario returns the named workload at the given size.
func newScenario(name string, sz size) (scenario, error) {
	perm := func(r *rng.Rand) []workload.FlowSpec {
		var specs []workload.FlowSpec
		for i := 0; i < sz.permRounds; i++ {
			specs = append(specs, permSpecs(r, sz)...)
		}
		return specs
	}
	switch name {
	case "perm-ecmp":
		return scenario{name: name, stack: harness.StackUnoECMP, gen: perm}, nil
	case "perm-ecmp-shard2":
		return scenario{name: name, stack: harness.StackUnoECMP, shards: 2, gen: perm}, nil
	case "mixed-uno":
		return scenario{name: name, stack: harness.StackUno, loss: true,
			gen: func(r *rng.Rand) []workload.FlowSpec { return mixedSpecs(r, sz) }}, nil
	}
	return scenario{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// permSpecs builds one permutation: every host sends one flow and
// receives one, starting at a uniform time in the window. Each DC starts
// from its own random intra-DC permutation; then crossFlows random flows
// of DC 0 trade destinations with crossFlows random flows of DC 1, which
// turns those 2·crossFlows flows into inter-DC flows while every host
// still receives exactly once.
func permSpecs(r *rng.Rand, sz size) []workload.FlowSpec {
	perDC := topo.DefaultConfig().HostsPerDC()
	var dcs [2][]workload.FlowSpec
	for dc := range dcs {
		dcs[dc] = workload.Permutation(workload.HostRange{Lo: dc * perDC, Hi: (dc + 1) * perDC},
			sz.permFlowBytes, r, func(int, int) bool { return false })
	}
	a, b := r.Perm(perDC), r.Perm(perDC)
	for k := 0; k < sz.crossFlows; k++ {
		fa, fb := &dcs[0][a[k]], &dcs[1][b[k]]
		fa.Dst, fb.Dst = fb.Dst, fa.Dst
		fa.InterDC, fb.InterDC = true, true
		fa.Size, fb.Size = sz.crossFlowBytes, sz.crossFlowBytes
	}
	specs := append(dcs[0], dcs[1]...)
	for i := range specs {
		specs[i].Start = eventq.Time(r.Float64() * float64(sz.permWindow))
	}
	return specs
}

// mixedSpecs builds the realistic mix: Poisson WebSearch flows inside
// each DC, Poisson Alibaba-WAN flows across, and a large population of
// GoogleRPC-sized messages inside each DC.
//
// Every class has a fixed flow count and arrives as a Poisson process
// conditioned on n arrivals in its window (generated with the MaxFlows
// cap, then stretched so the n-th arrival lands at the window's end). Sizes are stratified: the k-th of n flows of a class
// takes the CDF quantile of a point drawn inside the k-th of n equal
// probability strata, in shuffled order, from the class's CDF truncated
// at maxFlowBytes. Each seed therefore offers nearly the same bytes over
// the same window, so the spread between seeds reflects the simulator
// rather than a lucky draw of one 300 MB WAN flow.
func mixedSpecs(r *rng.Rand, sz size) []workload.FlowSpec {
	cfg := topo.DefaultConfig()
	perDC := cfg.HostsPerDC()
	var specs []workload.FlowSpec
	add := func(cdf *workload.CDF, n int, window eventq.Time, sources, dests workload.HostRange) {
		cdf = truncate(cdf, sz.maxFlowBytes)
		fs, err := workload.Poisson(workload.PoissonConfig{
			CDF: cdf, Load: 1, LinkBps: cfg.LinkBps, Sources: sources, Dests: dests,
			Duration: eventq.Second, MaxFlows: n,
		}, r.Split())
		if err != nil || len(fs) != n {
			panic(fmt.Sprintf("mixed workload: %d of %d flows: %v", len(fs), n, err))
		}
		stretch := float64(window) / float64(fs[n-1].Start)
		strata := r.Perm(n)
		for i := range fs {
			fs[i].Start = eventq.Time(float64(fs[i].Start) * stretch)
			fs[i].Size = quantile(cdf, (float64(strata[i])+r.Float64())/float64(n))
		}
		specs = append(specs, fs...)
	}
	for dc := 0; dc < cfg.NumDCs; dc++ {
		own := workload.HostRange{Lo: dc * perDC, Hi: (dc + 1) * perDC}
		other := workload.HostRange{Lo: (1 - dc) * perDC, Hi: (2 - dc) * perDC}
		add(workload.WebSearch, sz.wsFlows/2, bulkWindow, own, own)
		add(workload.AlibabaWAN, sz.wanFlows/2, bulkWindow, own, other)
		add(workload.GoogleRPC, sz.rpcFlows/2, rpcWindow, own, own)
	}
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Start < specs[j].Start })
	return specs
}

// truncate returns cdf cut at maxBytes: the knots below it, then maxBytes
// at probability 1.
func truncate(cdf *workload.CDF, maxBytes int64) *workload.CDF {
	if cdf.Points[len(cdf.Points)-1].Size <= maxBytes {
		return cdf
	}
	out := &workload.CDF{Name: cdf.Name}
	for _, p := range cdf.Points {
		if p.Size >= maxBytes {
			break
		}
		out.Points = append(out.Points, p)
	}
	out.Points = append(out.Points, workload.CDFPoint{Size: maxBytes, P: 1})
	return out
}

// quantile inverts cdf at u in [0, 1), interpolating linearly between
// knots exactly as workload.CDF.Sample does for its own uniform draw.
func quantile(cdf *workload.CDF, u float64) int64 {
	pts := cdf.Points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].P >= u })
	if i == 0 {
		return pts[0].Size
	}
	if i >= len(pts) {
		return pts[len(pts)-1].Size
	}
	lo, hi := pts[i-1], pts[i]
	if hi.P == lo.P {
		return hi.Size
	}
	s := float64(lo.Size) + (u-lo.P)/(hi.P-lo.P)*float64(hi.Size-lo.Size)
	if s < 1 {
		return 1
	}
	return int64(s)
}

// The mix's bulk classes arrive over bulkWindow; the RPCs keep arriving
// until rpcWindow, so the last completion is a short RPC's.
const (
	bulkWindow = 10 * eventq.Millisecond
	rpcWindow  = 25 * eventq.Millisecond
)

// attachLoss installs the fig13b loss model on every border link: Table 1
// Setup 1 correlation with the bad-state entry probability amplified 100×
// so a short run still sees loss bursts.
func attachLoss(sim *harness.Sim, r *rng.Rand) {
	for a := 0; a < sim.Topo.Cfg.NumDCs; a++ {
		for b := 0; b < sim.Topo.Cfg.NumDCs; b++ {
			if a == b {
				continue
			}
			for _, il := range sim.Topo.InterLinkFor(a, b) {
				ge := failure.NewTable1Loss(failure.Setup1, r.Split())
				ge.PGoodToBad *= 100
				il.Link.SetLoss(ge)
			}
		}
	}
}
