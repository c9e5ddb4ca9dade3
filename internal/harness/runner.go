// Package harness assembles full experiments: it builds the dual-DC
// topology, instantiates a protocol stack per flow, injects workloads, and
// collects the statistics each figure/table of the paper reports. One
// Experiment per figure lives in fig*.go; RunAll and the registry back the
// unosim CLI and the repository's benchmarks.
package harness

import (
	"fmt"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/stats"
	"uno/internal/topo"
	"uno/internal/transport"
	"uno/internal/workload"
)

// FlowResult records one completed (or abandoned) flow.
type FlowResult struct {
	Spec      workload.FlowSpec
	FCT       eventq.Time
	Ideal     eventq.Time // unloaded completion time for slowdown metrics
	Completed bool
}

// Slowdown returns FCT relative to the unloaded ideal.
func (r FlowResult) Slowdown() float64 {
	if r.Ideal <= 0 {
		return 0
	}
	return float64(r.FCT) / float64(r.Ideal)
}

// Sim wires a topology, per-host transport endpoints, and a protocol stack
// into a runnable experiment instance.
type Sim struct {
	Net  *netsim.Network
	Topo *topo.DualDC
	Eps  []*transport.Endpoint
	MTU  int

	stack   Stack
	nextID  netsim.FlowID
	results []FlowResult
	pending int
	conns   []*transport.Conn
	digest  *netsim.DigestObserver

	// Sharded execution (NewSimShards / UNO_SHARDS): cluster is non-nil
	// when the topology is partitioned per-DC, and every piece of mutable
	// run state the simulation touches from event context — digests,
	// pending counts, result lists — is then per-shard, written only by
	// that shard's goroutine during windows and combined in shard order by
	// the accessors. Net aliases shard 0's network for the code paths
	// that only touch DC 0.
	cluster      *netsim.Cluster
	shardDigests []*netsim.DigestObserver
	shardResults [][]FlowResult
	shardPending []int
}

// NewSim builds the simulation. The stack decides whether phantom queues
// are enabled on the fabric. The engine follows the package default
// (netsim.ShardDefault, i.e. the -shards flag / UNO_SHARDS): 0 keeps the
// classic single-scheduler simulation, N >= 1 partitions the fabric
// per-DC and drives it with N worker goroutines (see NewSimShards).
func NewSim(seed uint64, topoCfg topo.Config, stack Stack) (*Sim, error) {
	return NewSimShards(seed, topoCfg, stack, netsim.ShardDefault())
}

// NewSimShards builds the simulation with an explicit engine choice.
// shards <= 0 selects the legacy single-scheduler engine. shards >= 1
// partitions the fabric into one shard per datacenter — each with its own
// scheduler, packet pool, and RNG stream, coupled only through the
// border links' lookahead windows — and runs it with min(shards, NumDCs)
// worker goroutines. The shard count selects only the goroutine count:
// the partition, the barrier grid, and therefore every digest are
// identical for shards=1 and shards=2, which is exactly the equivalence
// the shard property tests pin. The partitioned engine's digests differ
// from the legacy engine's (per-shard RNG streams and event seqs), so
// golden digests recorded under one engine are only comparable within it.
func NewSimShards(seed uint64, topoCfg topo.Config, stack Stack, shards int) (*Sim, error) {
	topoCfg.PhantomEnabled = stack.Phantom
	if stack.QCN {
		topoCfg.QCN = true
	}
	if stack.ClassWeights != nil {
		topoCfg.ClassWeights = stack.ClassWeights
	}
	if shards <= 0 {
		net := netsim.New(seed)
		tp, err := topo.Build(net, topoCfg)
		if err != nil {
			return nil, err
		}
		s := &Sim{Net: net, Topo: tp, MTU: 4096, stack: stack}
		// Every harness run carries the determinism fingerprint: the
		// observer folds each fabric event into an FNV-1a hash, so equal
		// seeds must give equal digests. Chain extra observers behind it
		// via s.Observe.
		s.digest = netsim.NewDigestObserver(net)
		net.Observer = s.digest
		for _, h := range tp.Hosts {
			s.Eps = append(s.Eps, transport.NewEndpoint(h))
		}
		return s, nil
	}
	cl := netsim.NewCluster(seed, topoCfg.NumDCs, shards)
	tp, err := topo.BuildCluster(cl, topoCfg)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		Net: cl.Shard(0), Topo: tp, MTU: 4096, stack: stack,
		cluster:      cl,
		shardResults: make([][]FlowResult, cl.Shards()),
		shardPending: make([]int, cl.Shards()),
	}
	for i := 0; i < cl.Shards(); i++ {
		n := cl.Shard(i)
		d := netsim.NewDigestObserver(n)
		n.Observer = d
		s.shardDigests = append(s.shardDigests, d)
	}
	s.digest = s.shardDigests[0]
	for _, h := range tp.Hosts {
		s.Eps = append(s.Eps, transport.NewEndpoint(h))
	}
	return s, nil
}

// Sharded reports whether this Sim runs the partitioned engine.
func (s *Sim) Sharded() bool { return s.cluster != nil }

// Cluster returns the shard cluster, or nil for the legacy engine.
func (s *Sim) Cluster() *netsim.Cluster { return s.cluster }

// Digest returns the run's determinism fingerprint: an FNV-1a fold of every
// packet sent, delivered, and dropped so far. Two runs of the same scenario
// with the same seed must return the same digest. Sharded runs combine the
// per-shard digests in shard order, so the combined digest is independent
// of the worker count but not comparable to a legacy-engine digest.
func (s *Sim) Digest() uint64 {
	if s.cluster != nil {
		sums := make([]uint64, len(s.shardDigests))
		for i, d := range s.shardDigests {
			sums[i] = d.Sum()
		}
		return netsim.CombineDigests(sums...)
	}
	return s.digest.Sum()
}

// DigestEvents returns the number of fabric events folded into the digest
// (summed across shards for sharded runs).
func (s *Sim) DigestEvents() uint64 {
	if s.cluster != nil {
		var sum uint64
		for _, d := range s.shardDigests {
			sum += d.Events()
		}
		return sum
	}
	return s.digest.Events()
}

// EventsExecuted returns the total scheduler events executed so far
// (summed across shards for sharded runs) — the benchmark denominator.
func (s *Sim) EventsExecuted() uint64 {
	if s.cluster != nil {
		return s.cluster.Executed()
	}
	return s.Net.Sched.Executed()
}

// Observe chains an additional observer behind the digest observer, so
// tracing or counting never disables determinism checking. A sharded run
// has one digest (and one event stream) per shard; a single observer
// instance shared across them would be written by multiple goroutines, so
// Observe refuses and callers attach one observer per shard with
// ObserveShard.
func (s *Sim) Observe(o netsim.Observer) {
	if s.cluster != nil {
		panic("harness: Observe on a sharded Sim; attach one observer per shard with ObserveShard")
	}
	s.digest.Next = o
}

// ObserveShard chains an observer behind shard i's digest observer. The
// observer sees only shard i's events and is invoked from shard i's
// goroutine; attach a separate instance per shard. On a legacy Sim only
// shard 0 exists.
func (s *Sim) ObserveShard(i int, o netsim.Observer) {
	if s.cluster == nil {
		if i != 0 {
			panic("harness: ObserveShard on a legacy Sim with shard != 0")
		}
		s.digest.Next = o
		return
	}
	s.shardDigests[i].Next = o
}

// MustNewSim is NewSim for known-good configurations.
func MustNewSim(seed uint64, topoCfg topo.Config, stack Stack) *Sim {
	s, err := NewSim(seed, topoCfg, stack)
	if err != nil {
		panic(err)
	}
	return s
}

// BaseRTT returns the unloaded RTT between two host indices for a
// full-size data packet (MTU plus transport header) and its ACK.
func (s *Sim) BaseRTT(src, dst int) eventq.Time {
	return s.Topo.BaseRTT(s.Topo.Hosts[src].ID(), s.Topo.Hosts[dst].ID(),
		s.MTU+transport.HeaderSize, netsim.AckSize)
}

// IdealFCT returns the unloaded completion time of a flow: the base RTT
// for the first packet and final ACK, plus serialization of the remaining
// bytes at line rate.
func (s *Sim) IdealFCT(spec workload.FlowSpec) eventq.Time {
	base := s.BaseRTT(spec.Src, spec.Dst)
	nPkts := (spec.Size + int64(s.MTU) - 1) / int64(s.MTU)
	wire := spec.Size + nPkts*transport.HeaderSize
	rest := wire - int64(s.MTU+transport.HeaderSize)
	if rest < 0 {
		rest = 0
	}
	return base + eventq.Time(float64(rest)*8/float64(s.Topo.Cfg.LinkBps)*float64(eventq.Second))
}

// Schedule arranges for the given flows to start at their Start times.
// It returns the connections in spec order. On the legacy engine entries
// are populated as flows start; on the sharded engine every connection is
// opened (passively — no events, no entropy) up front from the
// coordinating goroutine, and only its Launch runs at spec.Start on the
// source host's shard.
func (s *Sim) Schedule(specs []workload.FlowSpec) []*transport.Conn {
	conns := make([]*transport.Conn, len(specs))
	if s.cluster != nil {
		for i, spec := range specs {
			conn, shard := s.openFlow(spec, nil)
			conns[i] = conn
			s.shardPending[shard]++
			s.Topo.Hosts[spec.Src].Network().Sched.Schedule(spec.Start, conn.Launch)
		}
		s.conns = append(s.conns, conns...)
		return conns
	}
	// The start closures fill both the returned slice and this Sim's own
	// record, which holds copies of the still-nil slots until then.
	base := len(s.conns)
	s.conns = append(s.conns, conns...)
	for i, spec := range specs {
		i, spec := i, spec
		s.pending++
		s.Net.Sched.Schedule(spec.Start, func() {
			conns[i] = s.startFlow(spec)
			s.conns[base+i] = conns[i]
		})
	}
	return conns
}

// StartFlow implements collective.Starter: it launches a transfer right
// now and invokes onDone at completion (in addition to the normal result
// collection). It is a legacy-engine API: a collective's completion
// callbacks run inside event execution, where a sharded Sim must not
// create cross-shard flows (the destination endpoint belongs to another
// goroutine), so sharded Sims refuse.
func (s *Sim) StartFlow(src, dst int, size int64, onDone func()) {
	if s.cluster != nil {
		panic("harness: StartFlow (collective starter) is unsupported on a sharded Sim; run collectives with UNO_SHARDS=off")
	}
	spec := workload.FlowSpec{Src: src, Dst: dst, Size: size, Start: s.Net.Now()}
	s.pending++
	s.conns = append(s.conns, s.startFlowHook(spec, onDone))
}

// startFlow launches one flow immediately.
func (s *Sim) startFlow(spec workload.FlowSpec) *transport.Conn {
	return s.startFlowHook(spec, nil)
}

// flowSetup resolves everything both engines need to wire a flow: the
// flow descriptor, transport parameters, policies, and the ideal FCT.
func (s *Sim) flowSetup(spec *workload.FlowSpec, start eventq.Time) (*transport.Flow,
	transport.Params, transport.CongestionControl, transport.PathSelector, eventq.Time) {
	s.nextID++
	srcHost, dstHost := s.Topo.Hosts[spec.Src], s.Topo.Hosts[spec.Dst]
	interDC := !s.Topo.SameDC(srcHost.ID(), dstHost.ID())
	// The topology is the single source of truth for the flow's class;
	// generator labels are advisory.
	spec.InterDC = interDC
	flow := &transport.Flow{
		ID:      s.nextID,
		Src:     srcHost,
		Dst:     dstHost,
		Size:    spec.Size,
		Start:   start,
		InterDC: interDC,
	}
	params, cc, lb := s.stack.Policies(s, *spec, interDC)
	params.MTU = s.MTU
	if params.BaseRTT <= 0 {
		params.BaseRTT = s.BaseRTT(spec.Src, spec.Dst)
	}
	return flow, params, cc, lb, s.IdealFCT(*spec)
}

// startFlowHook launches one flow immediately with an optional extra
// completion hook (legacy engine: runs at the flow's start time).
func (s *Sim) startFlowHook(spec workload.FlowSpec, hook func()) *transport.Conn {
	flow, params, cc, lb, ideal := s.flowSetup(&spec, s.Net.Now())
	conn := transport.MustStart(s.Eps[spec.Src], s.Eps[spec.Dst], flow, params, cc, lb,
		func(c *transport.Conn) {
			s.pending--
			s.results = append(s.results, FlowResult{
				Spec: spec, FCT: c.FCT(), Ideal: ideal, Completed: true,
			})
			if hook != nil {
				hook()
			}
		})
	return conn
}

// openFlow wires one flow passively (sharded engine: runs at setup time
// from the coordinating goroutine) and returns the connection plus the
// source host's shard, on whose clock the caller schedules Launch. The
// completion callback fires inside the source shard's event execution, so
// it touches only that shard's pending counter and result list.
func (s *Sim) openFlow(spec workload.FlowSpec, hook func()) (*transport.Conn, int) {
	flow, params, cc, lb, ideal := s.flowSetup(&spec, spec.Start)
	shard := s.Topo.Hosts[spec.Src].Network().Shard()
	conn := transport.MustOpen(s.Eps[spec.Src], s.Eps[spec.Dst], flow, params, cc, lb,
		func(c *transport.Conn) {
			s.shardPending[shard]--
			s.shardResults[shard] = append(s.shardResults[shard], FlowResult{
				Spec: spec, FCT: c.FCT(), Ideal: ideal, Completed: true,
			})
			if hook != nil {
				hook()
			}
		})
	return conn, shard
}

// Now returns the current simulated time: the scheduler clock, or — for a
// sharded Sim — the cluster clock (the last barrier every shard reached).
func (s *Sim) Now() eventq.Time {
	if s.cluster != nil {
		return s.cluster.Now()
	}
	return s.Net.Now()
}

// RunUntil advances the simulation to the deadline (through barrier-
// stepped lookahead windows on the sharded engine). Experiments drive
// their custom loops through this — never through s.Net.Sched directly —
// so they work on both engines.
func (s *Sim) RunUntil(deadline eventq.Time) {
	if s.cluster != nil {
		s.cluster.RunUntil(deadline)
		return
	}
	s.Net.Sched.RunUntil(deadline)
}

// Drain runs the simulation until no events remain (completed flows
// cancel their timers, so a finished workload quiesces).
func (s *Sim) Drain() {
	if s.cluster != nil {
		s.cluster.Run()
		return
	}
	s.Net.Sched.Run()
}

// Run executes until all scheduled flows complete or the horizon passes.
func (s *Sim) Run(horizon eventq.Time) {
	step := horizon / 64
	if step <= 0 {
		step = horizon
	}
	for at := step; at <= horizon; at += step {
		s.RunUntil(at)
		if s.Pending() == 0 {
			return
		}
	}
}

// Pending returns the number of scheduled-but-unfinished flows.
func (s *Sim) Pending() int {
	if s.cluster != nil {
		total := 0
		for _, p := range s.shardPending {
			total += p
		}
		return total
	}
	return s.pending
}

// Conns returns every connection created so far, in scheduling order
// (entries are nil for flows that have not started yet).
func (s *Sim) Conns() []*transport.Conn { return s.conns }

// Results returns the completed flows. A sharded Sim concatenates the
// per-shard result lists in shard order — deterministic, but not the
// legacy engine's completion order.
func (s *Sim) Results() []FlowResult {
	if s.cluster != nil {
		var out []FlowResult
		for _, rs := range s.shardResults {
			out = append(out, rs...)
		}
		return out
	}
	return s.results
}

// FCTStats summarizes completed flows, split intra/inter. slowdown selects
// FCT-slowdown (vs ideal) instead of absolute FCT in microseconds.
func (s *Sim) FCTStats(slowdown bool) (intra, inter stats.Summary) {
	results := s.Results()
	var si, se stats.Sample
	si.Reserve(len(results))
	se.Reserve(len(results))
	for _, r := range results {
		v := r.FCT.Seconds() * 1e6
		if slowdown {
			v = r.Slowdown()
		}
		if r.Spec.InterDC {
			se.Add(v)
		} else {
			si.Add(v)
		}
	}
	return si.Summarize(), se.Summarize()
}

// AllFCTStats summarizes all completed flows together.
func (s *Sim) AllFCTStats(slowdown bool) stats.Summary {
	results := s.Results()
	var sm stats.Sample
	sm.Reserve(len(results))
	for _, r := range results {
		if slowdown {
			sm.Add(r.Slowdown())
		} else {
			sm.Add(r.FCT.Seconds() * 1e6)
		}
	}
	return sm.Summarize()
}

// RateSampler samples per-connection goodput into time series and records
// when each flow completed, so fairness metrics cover only bins where a
// flow was still active (a finished flow's zero rate is not unfairness).
type RateSampler struct {
	Series []*stats.TimeSeries
	conns  []*transport.Conn
	last   []int64
	doneAt []int  // bin index of completion, -1 while active
	inter  []bool // optional class labels (SetClasses)
}

// SetClasses labels each sampled flow as inter-DC or not. When set, the
// fairness metrics only count bins in which *both* classes still have an
// active flow: without this, a scheme that starves one class until it
// finishes early would be scored on the surviving homogeneous flows and
// look spuriously fair.
func (rs *RateSampler) SetClasses(inter []bool) { rs.inter = inter }

// bothClassesActive reports whether bin b has at least one active flow of
// each class (always true when classes are not set or only one class
// exists).
func (rs *RateSampler) bothClassesActive(b int) bool {
	if rs.inter == nil {
		return true
	}
	var intraAny, interAny, intraActive, interActive bool
	for i := range rs.Series {
		// doneAt is the bin the flow completed *in*: it was still
		// transmitting during that bin, so only strictly later bins count
		// it as finished.
		active := rs.doneAt[i] < 0 || rs.doneAt[i] >= b
		if rs.inter[i] {
			interAny = true
			interActive = interActive || active
		} else {
			intraAny = true
			intraActive = intraActive || active
		}
	}
	if intraAny && !intraActive {
		return false
	}
	if interAny && !interActive {
		return false
	}
	return true
}

// SampleRates polls the given connections every interval over [0, stop].
// On the legacy engine connections may be nil until their flow starts. On
// the sharded engine every connection must already be open (Schedule
// opens them up front), and each shard runs its own sampling timer over
// the connections whose source host it owns: the timers fire at the same
// simulated tick times, and each (conns, last, doneAt, Series) slot is
// touched by exactly one shard's goroutine, so the sampler needs no
// locking and its output is worker-count-independent.
func (s *Sim) SampleRates(conns []*transport.Conn, interval, stop eventq.Time) *RateSampler {
	rs := &RateSampler{
		conns:  conns,
		last:   make([]int64, len(conns)),
		doneAt: make([]int, len(conns)),
	}
	for i := range rs.doneAt {
		rs.doneAt[i] = -1
	}
	bins := int(stop/interval) + 1
	rs.Series = make([]*stats.TimeSeries, 0, len(conns))
	for range conns {
		rs.Series = append(rs.Series, stats.NewTimeSeries(0, interval, bins))
	}
	sample := func(n *netsim.Network, idxs []int) {
		now := n.Now()
		bin := int((now - 1) / interval)
		for _, i := range idxs {
			c := conns[i]
			rs.conns[i] = c
			if c == nil {
				continue
			}
			acked := c.Stats().BytesAcked
			rs.Series[i].AddTo(now-1, float64(acked-rs.last[i]))
			rs.last[i] = acked
			if c.Completed() && rs.doneAt[i] < 0 {
				rs.doneAt[i] = bin
			}
		}
	}
	arm := func(n *netsim.Network, idxs []int) {
		var timer *eventq.Timer
		timer = n.Sched.NewTimer(func() {
			sample(n, idxs)
			if n.Now() < stop {
				timer.ResetAfter(interval)
			}
		})
		timer.Reset(interval)
	}
	if s.cluster == nil {
		all := make([]int, len(conns))
		for i := range all {
			all[i] = i
		}
		arm(s.Net, all)
		return rs
	}
	byShard := make([][]int, s.cluster.Shards())
	for i, c := range conns {
		if c == nil {
			panic("harness: SampleRates on a sharded Sim needs every connection open up front")
		}
		sh := c.Flow().Src.Network().Shard()
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, idxs := range byShard {
		if len(idxs) > 0 {
			arm(s.cluster.Shard(sh), idxs)
		}
	}
	return rs
}

// RatesAt returns each connection's goodput (bytes/s) in bin b.
func (rs *RateSampler) RatesAt(b int) []float64 {
	out := make([]float64, len(rs.Series))
	for i, ts := range rs.Series {
		out[i] = ts.Sum(b) / ts.BinWidth().Seconds()
	}
	return out
}

// activeRatesAt returns the goodputs of flows that were still transmitting
// during bin b. A flow with doneAt == b completed *within* bin b and was
// active for part of it, so only bins strictly after doneAt are excluded —
// dropping the completion bin biased the Jain computation near flow
// completions.
func (rs *RateSampler) activeRatesAt(b int) []float64 {
	var out []float64
	for i, ts := range rs.Series {
		if rs.doneAt[i] >= 0 && rs.doneAt[i] < b {
			continue
		}
		out = append(out, ts.Sum(b)/ts.BinWidth().Seconds())
	}
	return out
}

// TimeToFairness returns the first bin time at which Jain's index over the
// still-active flows stays above thresh for sustain consecutive bins, or
// -1 if that never happens while at least two flows compete.
func (rs *RateSampler) TimeToFairness(thresh float64, sustain int) eventq.Time {
	if len(rs.Series) == 0 {
		return -1
	}
	bins := rs.Series[0].Bins()
	streak := 0
	for b := 0; b < bins; b++ {
		active := rs.activeRatesAt(b)
		if len(active) < 2 || !rs.bothClassesActive(b) {
			break
		}
		if stats.JainIndex(active) >= thresh {
			streak++
			if streak >= sustain {
				return rs.Series[0].BinTime(b - sustain + 1)
			}
		} else {
			streak = 0
		}
	}
	return -1
}

// MeanJain returns the average Jain index over bins [from, to), counting
// only bins where at least two flows were active and (when classes are
// set) both classes were still competing.
func (rs *RateSampler) MeanJain(from, to int) float64 {
	if len(rs.Series) == 0 {
		return 0
	}
	total, n := 0.0, 0
	for b := from; b < to && b < rs.Series[0].Bins(); b++ {
		if !rs.bothClassesActive(b) {
			continue
		}
		if active := rs.activeRatesAt(b); len(active) >= 2 {
			total += stats.JainIndex(active)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// ClassRateRatio returns the per-flow inter-DC : intra-DC mean-rate ratio
// over the middle half of the contested period (1.0 = the classes share
// per-flow fairly; the paper's Fig 3 B shows Gemini far from 1 for the
// flows' whole lifetime).
func (rs *RateSampler) ClassRateRatio() float64 {
	if rs.inter == nil || len(rs.Series) == 0 {
		return 0
	}
	last := rs.lastContestedBin()
	if last < 0 {
		return 0
	}
	lo, hi := last/2, last*3/4+1
	var intraSum, interSum float64
	var intraN, interN int
	for i, ts := range rs.Series {
		sum := 0.0
		for b := lo; b < hi; b++ {
			sum += ts.Sum(b)
		}
		if rs.inter[i] {
			interSum += sum
			interN++
		} else {
			intraSum += sum
			intraN++
		}
	}
	if intraN == 0 || interN == 0 || intraSum == 0 {
		return 0
	}
	return (interSum / float64(interN)) / (intraSum / float64(intraN))
}

// lastContestedBin returns the final bin of the contested period, or -1.
func (rs *RateSampler) lastContestedBin() int {
	last := -1
	for b := 0; b < rs.Series[0].Bins(); b++ {
		if len(rs.activeRatesAt(b)) >= 2 && rs.bothClassesActive(b) {
			last = b
		} else if last >= 0 {
			break
		}
	}
	return last
}

// ContestedJain returns the mean Jain index over the middle half of the
// contested period — the longest prefix of bins during which at least two
// flows (and, when classes are set, both traffic classes) were active.
// The start transient and the completion edge (where a fair scheme's
// synchronized finishes make per-bin rates noisy) are both excluded; a
// fixed wall-clock window would instead score schemes on whatever
// homogeneous flows survive longest.
func (rs *RateSampler) ContestedJain() float64 {
	if len(rs.Series) == 0 {
		return 0
	}
	last := rs.lastContestedBin()
	if last < 0 {
		return 0
	}
	lo, hi := last/2, last*3/4+1
	return rs.MeanJain(lo, hi)
}

// fmtDur renders a duration for report tables.
func fmtDur(t eventq.Time) string {
	switch {
	case t < 0:
		return "-"
	case t >= eventq.Millisecond:
		return fmt.Sprintf("%.2fms", t.Seconds()*1e3)
	default:
		return fmt.Sprintf("%.1fµs", t.Seconds()*1e6)
	}
}
