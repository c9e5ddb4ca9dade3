package main

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"uno/internal/netsim"
)

// minRepeats is the fewest timed repeats a run makes in each mode, so
// every host-side metric is a median over at least that many.
const minRepeats = 3

// metric is one named value as the result line reports it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's human-readable lines plus its result.
type report struct {
	notes  []string
	result result
}

// measure runs the workload for the budget and assembles the report. The
// untraced repeats give the end-to-end metrics; with trace set, half the
// budget goes to untraced repeats (the baseline for the tracing overhead
// and the transparency check) and half to traced repeats, which give the
// per-layer metrics.
func measure(sc scenario, seed uint64, budget time.Duration, trace bool) (report, error) {
	var rep report
	notef := func(format string, a ...any) { rep.notes = append(rep.notes, fmt.Sprintf(format, a...)) }

	plainBudget := budget
	if trace {
		plainBudget /= 2
	}
	plain, _, err := repeats(sc, seed, plainBudget, false)
	if err != nil {
		return rep, err
	}
	var failures []string
	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }
	ref := plain[0]
	all := slices.Clone(plain)
	for i, o := range plain[1:] {
		if !sameSim(ref, o) {
			fail("repeat %d digest %#x / %d events differs from repeat 0 (%#x / %d)", i+1, o.digest, o.events, ref.digest, ref.events)
		}
	}
	if sc.shards >= 2 {
		// The worker count must not change the simulation: workers=1 runs
		// the same partition serially (untimed).
		one, err := runOnce(sc, seed, 1, false, nil)
		if err != nil {
			return rep, err
		}
		all = append(all, one)
		if !sameSim(ref, one) {
			fail("workers=1 digest %#x / %d events differs from workers=%d (%#x / %d)", one.digest, one.events, sc.shards, ref.digest, ref.events)
		}
	}
	var traced []outcome
	var cpu cpuSplit
	if trace {
		traced, cpu, err = repeats(sc, seed, budget/2, true)
		if err != nil {
			return rep, err
		}
		for i, o := range traced {
			if !sameSim(ref, o) {
				fail("traced repeat %d digest %#x / %d events differs from untraced (%#x / %d)", i, o.digest, o.events, ref.digest, ref.events)
			}
		}
		all = append(all, traced...)
	}
	if ref.fasterThanLight > 0 {
		fail("%d flows completed within less than their propagation RTT", ref.fasterThanLight)
	}
	if ref.completed != ref.flows {
		fail("%d of %d flows incomplete at the %v horizon", ref.flows-ref.completed, ref.flows, horizon)
	}

	res := &rep.result
	res.Correct = len(failures) == 0
	for _, o := range all {
		res.Attempted += o.flows
		res.Failed += o.flows - o.completed
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	res.Metrics = map[string]metric{}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	notef("simbench %s seed %d: %d flows, %d untraced + %d traced repeats", sc.name, seed, ref.flows, len(plain), len(traced))
	notef("digest %#x, %d events, %d hops, simulated %v", ref.digest, ref.events, ref.hops, ref.simTime)
	notef("flows_incomplete_frac %.6f (%d of %d flows over all runs)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	notef("fct_tail_us is percentile %.2f (the 11th-largest FCT)", ref.fct.tailPct)
	for _, f := range failures {
		notef("CHECK FAILED: %s", f)
	}

	if !trace {
		med := func(f func(outcome) float64) float64 { return median(plain, f) }
		put("setup_s", "s", med(func(o outcome) float64 { return o.setupS }))
		put("wall_s", "s", med(func(o outcome) float64 { return o.wallS }))
		put("hops_per_s", "1/s", med(func(o outcome) float64 { return float64(o.hops) / o.runS }))
		put("alloc_mb", "MB", med(func(o outcome) float64 { return float64(o.allocBytes) / 1e6 }))
		put("peak_rss_mb", "MB", med(func(o outcome) float64 { return float64(o.peakRSS) / 1e6 }))
		put("fct_p50_us", "us", ref.fct.p50US)
		put("fct_tail_us", "us", ref.fct.tailUS)
		put("goodput_gbps", "Gbit/s", ref.fct.goodputGbps)
	} else {
		layerMetrics(put, plain, traced, cpu)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[name]
		notef("  %-32s %16.6f %s", name, m.Value, m.Unit)
	}
	return rep, nil
}

// repeats runs the workload until the budget is spent and at least
// minRepeats have run. Traced repeats wrap the stack in decorators and
// profile each Sim.Run span; their CPU time is returned by layer.
func repeats(sc scenario, seed uint64, budget time.Duration, traced bool) ([]outcome, cpuSplit, error) {
	var out []outcome
	var cpu cpuSplit
	start := time.Now()
	for len(out) < minRepeats || time.Since(start) < budget {
		var prof *bytes.Buffer
		if traced {
			prof = new(bytes.Buffer)
		}
		o, err := runOnce(sc, seed, sc.shards, traced, prof)
		if err != nil {
			return nil, cpu, err
		}
		if traced {
			if err := cpu.add(prof.Bytes()); err != nil {
				return nil, cpu, err
			}
		}
		out = append(out, o)
	}
	return out, cpu, nil
}

// layerMetrics emits the per-layer metrics of a traced run.
func layerMetrics(put func(name, unit string, v float64), plain, traced []outcome, cpu cpuSplit) {
	t := traced[0]
	med := func(f func(outcome) float64) float64 { return median(traced, f) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("harness.newsim_s", "s", med(func(o outcome) float64 { return o.newSimS }))
	put("harness.schedule_s", "s", med(func(o outcome) float64 { return o.scheduleS }))
	put("workload.gen_s", "s", med(func(o outcome) float64 { return o.genS }))
	put("workload.flows", "count", float64(t.flows))

	put("eventq.events", "count", float64(t.events))
	put("eventq.events_per_hop", "ratio", ratio(float64(t.events), float64(t.hops)))

	var drops, other uint64
	for reason, n := range t.drops {
		drops += n
		if reason != netsim.DropTail && reason != netsim.DropLoss {
			other += n
		}
	}
	put("netsim.hops", "count", float64(t.hops))
	put("netsim.pkts_injected", "count", float64(t.injected))
	put("netsim.drops_taildrop", "count", float64(t.drops[netsim.DropTail]))
	put("netsim.drops_loss", "count", float64(t.drops[netsim.DropLoss]))
	put("netsim.drops_other", "count", float64(other))
	put("netsim.drop_frac", "ratio", ratio(float64(drops), float64(t.injected)))
	var maxEv, sumEv uint64
	for _, e := range t.shardEvents {
		maxEv = max(maxEv, e)
		sumEv += e
	}
	put("netsim.shard_event_imbalance", "ratio", ratio(float64(maxEv), float64(sumEv)/float64(len(t.shardEvents))))
	windows := 1.0 // the classic engine runs the whole simulation as one window
	if t.lookahead > 0 {
		windows = float64(t.simTime) / float64(t.lookahead)
	}
	put("netsim.shard_windows", "count", windows)

	put("transport.data_pkts", "count", float64(t.conn.PktsSent))
	put("transport.retx", "count", float64(t.conn.PktsRetrans))
	put("transport.fast_retx", "count", float64(t.conn.FastRetrans))
	put("transport.timeouts", "count", float64(t.conn.Timeouts))
	put("transport.nacks", "count", float64(t.conn.NacksReceived))
	put("transport.acks", "count", float64(t.conn.AcksReceived))
	put("transport.retx_frac", "ratio", ratio(float64(t.conn.PktsRetrans), float64(t.conn.PktsSent)))

	put("core.cc_calls", "count", float64(t.core.ccCalls))
	put("core.cc_s", "s", med(func(o outcome) float64 { return o.core.ccTime.Seconds() }))
	put("core.lb_calls", "count", float64(t.core.lbCalls))
	put("core.lb_s", "s", med(func(o outcome) float64 { return o.core.lbTime.Seconds() }))
	put("core.unocc_epochs", "count", float64(t.core.epochs))
	put("core.unocc_mds", "count", float64(t.core.mds))
	put("core.unocc_gentle_mds", "count", float64(t.core.gentleMDs))
	put("core.unocc_qa_fires", "count", float64(t.core.qaFires))
	put("core.unolb_reroutes", "count", float64(t.core.reroutes))

	put("runtime.alloc_per_flow_bytes", "B", med(func(o outcome) float64 { return float64(o.allocBytes) / float64(o.flows) }))

	var total int64
	for _, v := range cpu.layers {
		total += v
	}
	for _, l := range cpuLayers {
		put(l+".cpu_share", "ratio", ratio(float64(cpu.layers[l]), float64(total)))
	}
	put("runtime.gc_cpu_frac", "ratio", ratio(float64(cpu.gc), float64(total)))
	put("trace.overhead", "ratio", ratio(med(func(o outcome) float64 { return o.wallS }),
		median(plain, func(o outcome) float64 { return o.wallS })))
}

// median returns the median of f over the outcomes.
func median(outs []outcome, f func(outcome) float64) float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
