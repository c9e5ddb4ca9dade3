package main

import (
	"time"

	"uno/internal/core"
	"uno/internal/harness"
	"uno/internal/netsim"
	"uno/internal/transport"
	"uno/internal/workload"
)

// shardProbe is one shard's set of decorator counters. Each shard's
// controllers run on that shard's goroutine only, so a set is written by
// one goroutine and merged after Run returns.
type shardProbe struct {
	ccCalls, lbCalls uint64
	ccTime, lbTime   time.Duration
	// The wrapped controllers and selectors, kept to read their telemetry
	// after the run.
	ccs []transport.CongestionControl
	lbs []transport.PathSelector
}

// probes holds one shardProbe per shard of a Sim.
type probes []*shardProbe

func newProbes(shards int) probes {
	p := make(probes, shards)
	for i := range p {
		p[i] = &shardProbe{}
	}
	return p
}

// wrap returns st with every flow's controller and path selector wrapped
// in timing decorators charged to the source host's shard. Policies runs
// on one goroutine at a time on both engines (in event context on the
// classic engine, at Schedule on the sharded one), so appending to the
// shard's lists needs no lock.
func (p probes) wrap(st harness.Stack) harness.Stack {
	policies := st.Policies
	st.Policies = func(s *harness.Sim, spec workload.FlowSpec, interDC bool) (transport.Params, transport.CongestionControl, transport.PathSelector) {
		params, cc, lb := policies(s, spec, interDC)
		sp := p[s.Topo.Hosts[spec.Src].Network().Shard()]
		sp.ccs = append(sp.ccs, cc)
		sp.lbs = append(sp.lbs, lb)
		return params, wrapCC(cc, sp), &lbProbe{inner: lb, sp: sp}
	}
	return st
}

// coreCounts is the merged decorator timing plus the Uno controllers' own
// telemetry.
type coreCounts struct {
	ccCalls, lbCalls                uint64
	ccTime, lbTime                  time.Duration
	epochs, mds, gentleMDs, qaFires uint64
	reroutes                        uint64
}

func (p probes) merge() coreCounts {
	var c coreCounts
	for _, sp := range p {
		c.ccCalls += sp.ccCalls
		c.lbCalls += sp.lbCalls
		c.ccTime += sp.ccTime
		c.lbTime += sp.lbTime
		for _, cc := range sp.ccs {
			if u, ok := cc.(*core.UnoCC); ok {
				c.epochs += uint64(u.Epochs)
				c.mds += uint64(u.MDs)
				c.gentleMDs += uint64(u.GentleMDs)
				c.qaFires += uint64(u.QAFires)
			}
		}
		for _, lb := range sp.lbs {
			if u, ok := lb.(*core.UnoLB); ok {
				c.reroutes += uint64(u.Reroutes)
			}
		}
	}
	return c
}

// ccProbe times a congestion controller's per-packet callbacks.
type ccProbe struct {
	inner transport.CongestionControl
	sp    *shardProbe
}

// wrapCC decorates cc. The connection type-asserts its controller for the
// optional transport.CnmReceiver extension, so the decorator offers OnCnm
// exactly when the wrapped controller does.
func wrapCC(cc transport.CongestionControl, sp *shardProbe) transport.CongestionControl {
	p := &ccProbe{inner: cc, sp: sp}
	if r, ok := cc.(transport.CnmReceiver); ok {
		return &cnmProbe{ccProbe: p, cnm: r}
	}
	return p
}

func (sp *shardProbe) ccDone(t time.Time) { sp.ccTime += time.Since(t); sp.ccCalls++ }
func (sp *shardProbe) lbDone(t time.Time) { sp.lbTime += time.Since(t); sp.lbCalls++ }

func (p *ccProbe) Name() string           { return p.inner.Name() }
func (p *ccProbe) Init(c *transport.Conn) { p.inner.Init(c) }

func (p *ccProbe) OnAck(c *transport.Conn, a transport.AckInfo) {
	t := time.Now()
	p.inner.OnAck(c, a)
	p.sp.ccDone(t)
}

func (p *ccProbe) OnNack(c *transport.Conn) {
	t := time.Now()
	p.inner.OnNack(c)
	p.sp.ccDone(t)
}

func (p *ccProbe) OnTimeout(c *transport.Conn) {
	t := time.Now()
	p.inner.OnTimeout(c)
	p.sp.ccDone(t)
}

// cnmProbe is a ccProbe whose controller also takes QCN notifications.
type cnmProbe struct {
	*ccProbe
	cnm transport.CnmReceiver
}

func (p *cnmProbe) OnCnm(c *transport.Conn, feedback float64) {
	t := time.Now()
	p.cnm.OnCnm(c, feedback)
	p.sp.ccDone(t)
}

// lbProbe times a path selector's Assign and its feedback callbacks.
type lbProbe struct {
	inner transport.PathSelector
	sp    *shardProbe
}

func (p *lbProbe) Name() string           { return p.inner.Name() }
func (p *lbProbe) Init(c *transport.Conn) { p.inner.Init(c) }

func (p *lbProbe) Assign(c *transport.Conn, pkt *netsim.Packet) {
	t := time.Now()
	p.inner.Assign(c, pkt)
	p.sp.lbDone(t)
}

func (p *lbProbe) OnAck(c *transport.Conn, a transport.AckInfo, subflow int8, entropy uint32) {
	t := time.Now()
	p.inner.OnAck(c, a, subflow, entropy)
	p.sp.lbDone(t)
}

func (p *lbProbe) OnNack(c *transport.Conn) {
	t := time.Now()
	p.inner.OnNack(c)
	p.sp.lbDone(t)
}

func (p *lbProbe) OnTimeout(c *transport.Conn) {
	t := time.Now()
	p.inner.OnTimeout(c)
	p.sp.lbDone(t)
}
