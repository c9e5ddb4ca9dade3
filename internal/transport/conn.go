package transport

import (
	"fmt"
	"math"

	"uno/internal/ec"
	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// pktState tracks one schedule entry at the sender. The scoreboard keeps
// one per outstanding entry, so it is kept at 16 bytes (TestPktStateSize).
type pktState struct {
	sentAt   eventq.Time
	entropy  uint32
	subflow  int8
	flags    pktFlags
	rtxCount uint8
}

// pktFlags is a set of per-packet sender flags.
type pktFlags uint8

const (
	sent        pktFlags = 1 << iota
	acked                // acknowledged at least once
	dontCare             // block satisfied without this packet; never (re)send
	inFlight             // counted in Conn.inFlight
	lossPending          // queued for retransmission, not yet re-sent
)

// is reports whether any flag of f is set.
func (s pktState) is(f pktFlags) bool { return s.flags&f != 0 }

// set raises the flags of f.
func (s *pktState) set(f pktFlags) { s.flags |= f }

// clear lowers the flags of f.
func (s *pktState) clear(f pktFlags) { s.flags &^= f }

// ConnStats are cumulative sender-side counters.
type ConnStats struct {
	PktsSent      uint64
	PktsRetrans   uint64
	AcksReceived  uint64
	MarkedAcks    uint64
	Timeouts      uint64
	FastRetrans   uint64
	NacksReceived uint64
	CnmsReceived  uint64 // QCN congestion notifications received
	TrimNotices   uint64 // trimmed-packet loss notifications received
	BytesAcked    int64  // wire bytes acknowledged (first ACK per packet)
}

// Conn is the sender side of one flow. Congestion-control and path-selector
// policies observe and steer it through the exported accessors. All methods
// run on the simulation goroutine.
type Conn struct {
	ep     *Endpoint
	flow   *Flow
	params Params
	cc     CongestionControl
	lb     PathSelector

	sched schedule
	// minted holds the fountain repair entries appended past the static
	// schedule: entry seq >= sched.n lives at minted[seq-sched.n].
	minted []pktDesc
	sb     scoreboard // per-entry sender state, static and minted

	nextNew  int64   // next never-sent schedule index
	rtxQ     []int64 // retransmission queue (schedule indices)
	inFlight int64   // wire bytes outstanding
	cwnd     float64 // congestion window, wire bytes
	pacing   float64 // pacing rate in bits/s; 0 disables pacing

	nextSendAt eventq.Time
	sendTimer  *eventq.Timer // pacer wakeup, bound once to trySend

	srtt, rttvar eventq.Time
	hasRTT       bool

	// Lazy TCP-style retransmission timer: armed at lastProgress+rto and
	// re-checked on expiry, so per-ACK work is O(1). A reusable Timer: the
	// callback is bound once and every (re)arming is allocation-free.
	rtoTimer     *eventq.Timer
	rtoBackoff   uint
	lastProgress eventq.Time

	// Fast-retransmit state.
	lowestUnacked int64
	acksAboveLow  int
	// maxAckedSent is the latest transmission time among acked packets —
	// the RACK loss-sweep reference point.
	maxAckedSent eventq.Time

	blockAcked     []int16 // per-block distinct acked packets
	blockSatisfied []bool

	// maxSentEnd is one past the highest schedule index ever transmitted.
	// For fixed schedules it always equals nextNew whenever it matters; the
	// fountain scheme appends repair entries past nextNew and sends them
	// from the retransmission queue, so loss sweeps scan to this bound.
	maxSentEnd int64

	// Rateless (fountain) sender state; nil/empty under SchemeRS.
	fountain  *ec.Fountain
	extraSeqs [][]int64 // per-block appended repair schedule indices
	nextSymID []int16   // per-block next fresh repair symbol id
	// lossEWMA tracks the observed loss fraction from NACK and RTO signals
	// and sizes proactive repair beyond the scheduled Parity (§DESIGN 3.9).
	lossEWMA float64

	stats     ConnStats
	running   bool // both policies initialized; transmission may begin
	completed bool
	fct       eventq.Time
	onDone    func(*Conn)
}

// newConn builds (but does not start) a sender.
func newConn(ep *Endpoint, flow *Flow, params Params, cc CongestionControl, lb PathSelector, onDone func(*Conn)) *Conn {
	sched := newSchedule(flow.Size, params)
	c := &Conn{
		ep:     ep,
		flow:   flow,
		params: params,
		cc:     cc,
		lb:     lb,
		sched:  sched,
		cwnd:   params.InitialCwnd,
		onDone: onDone,
	}
	if nb := sched.blocks(); nb > 0 {
		c.blockAcked = make([]int16, nb)
		c.blockSatisfied = make([]bool, nb)
	}
	c.sb = newScoreboard(sched, c.blockSatisfied)
	if params.EC.Fountain() {
		nb := sched.blocks()
		c.fountain = ec.MustNewFountain(params.EC.Data, params.EC.Parity)
		c.extraSeqs = make([][]int64, nb)
		c.nextSymID = make([]int16, nb)
		for b := range c.nextSymID {
			c.nextSymID[b] = sched.block(int64(b)).count // ids 0..count-1 are scheduled
		}
	}
	if c.cwnd <= 0 {
		c.cwnd = float64(params.MTU + HeaderSize)
	}
	sch := ep.host.Network().Sched
	c.sendTimer = sch.NewTimer(c.trySend)
	c.rtoTimer = sch.NewTimer(c.onRTO)
	return c
}

// Launch runs the policies' Init hooks and begins transmitting. It must
// run on the source host's shard at the flow's start time: everything
// before it (newConn via Open) is passive setup, everything from here on
// draws entropy and schedules events on the source shard's clock.
func (c *Conn) Launch() {
	c.lastProgress = c.Now()
	c.cc.Init(c)
	c.lb.Init(c)
	c.running = true
	// The first window, as the controller just set it, goes out now.
	c.sb.reserve(max(1, int64(c.cwnd)/int64(c.MTUWire())))
	c.trySend()
}

// ---- accessors for policies and harnesses ----

// Flow returns the flow descriptor.
func (c *Conn) Flow() *Flow { return c.flow }

// Params returns the transport parameters.
func (c *Conn) Params() Params { return c.params }

// Scheduler returns the simulation scheduler (for policy timers).
func (c *Conn) Scheduler() *eventq.Scheduler { return c.ep.host.Network().Sched }

// Rand returns the simulation's deterministic RNG.
func (c *Conn) Rand() *rng.Rand { return c.ep.host.Network().Rand }

// Now returns the current simulated time.
func (c *Conn) Now() eventq.Time { return c.Scheduler().Now() }

// Cwnd returns the congestion window in wire bytes.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// SetCwnd sets the congestion window, clamped to at least one packet.
func (c *Conn) SetCwnd(w float64) {
	min := float64(c.params.MTU + HeaderSize)
	if w < min {
		w = min
	}
	grew := w > c.cwnd
	c.cwnd = w
	if grew && !c.completed {
		c.trySend()
	}
}

// PacingRate returns the pacing rate in bits per second (0 = unpaced).
func (c *Conn) PacingRate() float64 { return c.pacing }

// SetPacingRate sets the pacing rate in bits per second; 0 disables pacing.
func (c *Conn) SetPacingRate(bps float64) {
	if bps < 0 {
		bps = 0
	}
	c.pacing = bps
	if !c.completed {
		c.trySend()
	}
}

// SRTT returns the smoothed RTT (0 before the first sample).
func (c *Conn) SRTT() eventq.Time { return c.srtt }

// InFlight returns the outstanding wire bytes.
func (c *Conn) InFlight() int64 { return c.inFlight }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// Completed reports whether the flow finished.
func (c *Conn) Completed() bool { return c.completed }

// FCT returns the flow completion time (valid only once Completed).
func (c *Conn) FCT() eventq.Time { return c.fct }

// MTUWire returns the wire size of a full data packet.
func (c *Conn) MTUWire() int { return c.params.MTU + HeaderSize }

// TotalPkts returns the schedule length (data + parity packets, including
// minted fountain repair entries).
func (c *Conn) TotalPkts() int64 { return c.sb.total() }

// ---- sending ----

// desc returns schedule entry seq, static or minted.
func (c *Conn) desc(seq int64) pktDesc {
	if seq < c.sched.n {
		return c.sched.at(seq)
	}
	return c.minted[seq-c.sched.n]
}

// wireSize returns the wire size of schedule entry seq.
func (c *Conn) wireSize(seq int64) int { return c.desc(seq).wire }

// nextToSend picks the next schedule index to transmit: retransmissions
// first, then fresh packets. Returns -1 when nothing is eligible.
func (c *Conn) nextToSend() int64 {
	for len(c.rtxQ) > 0 {
		seq := c.rtxQ[0]
		if st := c.sb.get(seq); st.is(acked|dontCare|inFlight) || !st.is(lossPending) {
			c.rtxQ = c.rtxQ[1:]
			continue
		}
		return seq
	}
	for c.nextNew < c.sb.total() {
		seq := c.nextNew
		// Skip don't-care entries, plus entries the fresh-packet cursor
		// does not own: fountain-appended repair symbols are dispatched
		// through the retransmission queue (lossPending until sent, sent
		// afterwards), so the cursor steps over them. Fixed schedules
		// never mark an entry past nextNew sent or lossPending, so this
		// is behavior-identical under SchemeRS.
		if st := c.sb.get(seq); st.is(dontCare | sent | lossPending) {
			c.nextNew++
			continue
		}
		return seq
	}
	return -1
}

// lossScanEnd bounds the loss-detection sweeps: every schedule entry that
// could be in flight lies below max(nextNew, maxSentEnd).
func (c *Conn) lossScanEnd() int64 {
	if c.maxSentEnd > c.nextNew {
		return c.maxSentEnd
	}
	return c.nextNew
}

// trySend transmits as many packets as the window and pacer allow.
func (c *Conn) trySend() {
	if !c.running || c.completed {
		return
	}
	for {
		now := c.Now()
		if c.pacing > 0 && now < c.nextSendAt {
			c.armSendEvent(c.nextSendAt)
			return
		}
		seq := c.nextToSend()
		if seq < 0 {
			return
		}
		size := c.wireSize(seq)
		// Window check: always allow one packet when nothing is in
		// flight, so the flow can never stall on a tiny window.
		if c.inFlight > 0 && float64(c.inFlight+int64(size)) > c.cwnd {
			return
		}
		c.transmit(seq)
		if c.pacing > 0 {
			c.nextSendAt = now + eventq.Time(float64(size)*8*float64(eventq.Second)/c.pacing)
		}
	}
}

// armSendEvent schedules a pacer wakeup at time at.
func (c *Conn) armSendEvent(at eventq.Time) {
	if c.sendTimer.Pending() && c.sendTimer.At() <= at {
		return
	}
	c.sendTimer.Reset(at)
}

// transmit puts schedule entry seq on the wire.
func (c *Conn) transmit(seq int64) {
	d := c.desc(seq)
	st := c.sb.at(seq)
	p := c.ep.host.Network().AllocPacket()
	p.Type = netsim.Data
	p.Flow = c.flow.ID
	p.Src = c.flow.Src.ID()
	p.Dst = c.flow.Dst.ID()
	p.Size = d.wire
	p.Seq = seq
	p.ECNCapable = true
	p.SentAt = c.Now()
	p.IsRtx = st.is(sent)
	p.Block = d.block
	p.BlockIdx = d.blockIdx
	p.IsParity = d.parity
	p.Subflow = -1
	if c.flow.InterDC {
		p.Class = 1 // class-queue ports separate WAN from local traffic
	}
	c.lb.Assign(c, p)

	if p.IsRtx {
		c.stats.PktsRetrans++
	} else {
		c.lastProgress = p.SentAt
	}
	c.stats.PktsSent++
	st.sentAt = p.SentAt
	st.entropy = p.Entropy
	st.subflow = p.Subflow
	st.set(sent)
	st.clear(lossPending)
	if !st.is(inFlight) { // probes may re-send an already-counted packet
		st.set(inFlight)
		c.inFlight += int64(d.wire)
	}
	if st.rtxCount < 255 {
		st.rtxCount++
	}
	if seq == c.nextNew {
		c.nextNew++
	}
	if seq >= c.maxSentEnd {
		c.maxSentEnd = seq + 1
	}
	c.flow.Src.Send(p)
	// p.IsRtx captured the sent flag before this transmission, so !p.IsRtx
	// means the entry just went out for the first time. appendRepair may
	// grow c.minted and the scoreboard; st is not touched past this point.
	if c.fountain != nil && !p.IsRtx && d.parity && d.block >= 0 {
		c.maybeProactiveRepair(d.block, seq)
	}
	c.armRTO()
}

// maybeProactiveRepair appends adaptive proactive repair symbols right
// after a block's last scheduled repair symbol goes out for the first time:
// if the loss EWMA says the scheduled Parity likely won't survive, extra
// fresh symbols are minted now instead of waiting for the NACK round trip.
func (c *Conn) maybeProactiveRepair(b int32, seq int64) {
	blk := c.sched.block(int64(b))
	if seq != blk.start+int64(blk.count)-1 || len(c.extraSeqs[b]) > 0 || c.blockSatisfied[b] {
		return
	}
	if extra := c.adaptiveRepair(blk); extra > 0 {
		c.appendRepair(b, extra)
	}
}

// adaptiveRepair sizes extra proactive redundancy for one block: with loss
// fraction p, n transmitted symbols survive as n(1-p) expected deliveries,
// so covering dataCount needs ceil(dataCount/(1-p)) symbols. The excess
// over the already-scheduled count is capped at one extra dataCount worth.
func (c *Conn) adaptiveRepair(blk blockDesc) int {
	p := c.lossEWMA
	if p <= 0 {
		return 0
	}
	if p > 0.5 {
		p = 0.5
	}
	n := int(math.Ceil(float64(blk.dataCount) / (1 - p)))
	extra := n - int(blk.count)
	if extra < 0 {
		extra = 0
	}
	if max := int(blk.dataCount); extra > max {
		extra = max
	}
	return extra
}

// noteLossSample folds one observed loss fraction into the EWMA driving
// adaptive redundancy (gain 1/8, like the RTT estimator).
func (c *Conn) noteLossSample(lost, total int) {
	if total <= 0 {
		return
	}
	s := float64(lost) / float64(total)
	if s > 1 {
		s = 1
	}
	c.lossEWMA = c.lossEWMA*(7.0/8) + s/8
}

// appendRepair mints n fresh fountain repair symbols for block b: each gets
// a new schedule entry past the static schedule and a new symbol id, is
// queued on the retransmission queue for priority dispatch, and inherits
// the block's repair wire size. No-op once the BlockIdx id space runs out.
func (c *Conn) appendRepair(b int32, n int) {
	blk := c.sched.block(int64(b))
	// Repair symbols are sized like the block's largest payload, as its
	// scheduled parity packets are.
	wire := c.sched.maxPayload(int64(b)) + HeaderSize
	limit := int16(c.fountain.MaxSymbols(int(blk.dataCount)) - 1)
	for i := 0; i < n; i++ {
		id := c.nextSymID[b]
		if id >= limit {
			return
		}
		c.nextSymID[b] = id + 1
		seq := c.sb.total()
		c.minted = append(c.minted, pktDesc{
			payload: 0, wire: wire, block: b, blockIdx: id, parity: true,
		})
		c.sb.mint()
		c.extraSeqs[b] = append(c.extraSeqs[b], seq)
		c.rtxQ = append(c.rtxQ, seq)
	}
}

// ---- RTO ----

// rto returns the current retransmission timeout with backoff applied,
// clamped to [MinRTO, MaxRTO].
func (c *Conn) rto() eventq.Time {
	base := c.params.MinRTO
	if c.hasRTT {
		if est := c.srtt + 4*c.rttvar; est > base {
			base = est
		}
	}
	// Clamp the estimate before the backoff loop: doubling first and
	// comparing after could wrap a large srtt+4*rttvar estimate negative
	// (int64 picoseconds) before the guard ever tripped. Inside the loop,
	// bail as soon as one more doubling would reach the cap — base then
	// never exceeds MaxRTO/2+ε, so the multiply cannot overflow.
	max := c.params.MaxRTO
	if base >= max {
		return max
	}
	for i := uint(0); i < c.rtoBackoff; i++ {
		if base > max/2 {
			return max
		}
		base *= 2
	}
	return base
}

// armRTO schedules the lazy retransmission timer if none is pending.
func (c *Conn) armRTO() {
	if c.completed || c.rtoTimer.Pending() {
		return
	}
	at := c.lastProgress + c.rto()
	if at < c.Now() {
		at = c.Now()
	}
	c.rtoTimer.Reset(at)
}

// onRTO fires when the lazy timer expires. If real progress happened in
// the meantime it simply re-arms; otherwise the oldest outstanding packet
// is declared lost (or, if everything is acknowledged but the flow never
// saw FlowDone — the final ACK was lost — the last packet is re-sent as a
// probe to solicit a fresh FlowDone).
func (c *Conn) onRTO() {
	if c.completed {
		return
	}
	if deadline := c.lastProgress + c.rto(); c.Now() < deadline {
		c.armRTO()
		return
	}
	c.stats.Timeouts++
	c.lastProgress = c.Now()
	if c.rtoBackoff < 16 {
		c.rtoBackoff++
	}

	// Oldest outstanding packet, scanned only on (rare) timeouts.
	oldest := int64(-1)
	var oldestAt eventq.Time
	scanEnd := c.lossScanEnd()
	for seq := c.lowestUnacked; seq < scanEnd; seq++ {
		if st := c.sb.get(seq); st.is(inFlight) && !st.is(acked|dontCare) {
			if oldest < 0 || st.sentAt < oldestAt {
				oldest, oldestAt = seq, st.sentAt
			}
		}
	}
	switch {
	case oldest >= 0:
		// Declare lost everything at least one RTO old, not only the
		// single oldest packet: a burst dropped wholesale would otherwise
		// be reclaimed one packet per timeout.
		cutoff := c.Now() - c.rto()
		outstanding, declared := 0, 0
		for seq := c.lowestUnacked; seq < scanEnd; seq++ {
			st := c.sb.get(seq)
			if st.is(acked|dontCare|lossPending) || !st.is(inFlight) {
				continue
			}
			outstanding++
			if st.sentAt <= cutoff {
				c.markLost(seq)
				declared++
			}
		}
		if c.fountain != nil && declared > 0 {
			c.noteLossSample(declared, outstanding)
		}
	case c.nextNew >= c.sb.total() && len(c.rtxQ) == 0:
		// Everything sent and acknowledged but no FlowDone: probe.
		c.probeFinalAck()
	}
	c.cc.OnTimeout(c)
	c.lb.OnTimeout(c)
	c.armRTO()
	c.trySend()
}

// probeFinalAck re-sends the last schedule entry to solicit a FlowDone.
func (c *Conn) probeFinalAck() {
	seq := c.sb.total() - 1
	c.transmit(seq)
}

// ---- receive path (ACK / NACK handling) ----

// handleAck processes one incoming ACK packet.
func (c *Conn) handleAck(p *netsim.Packet) {
	if c.completed {
		return
	}
	now := c.Now()
	c.stats.AcksReceived++
	if p.EchoMarked {
		c.stats.MarkedAcks++
	}

	seq := p.AckSeq
	if seq < 0 || seq >= c.sb.total() {
		// Under the rateless scheme the receiver accepts dynamic repair
		// symbols past its static schedule and echoes whatever sequence
		// number the header carried, so a corrupt or hostile symbol can
		// produce an ACK for a seq this sender never minted. There is no
		// state to release — drop it. For MDS schemes the receiver
		// bounds-checks seq against the static schedule before echoing,
		// so an out-of-range ACK can only be an internal bug.
		if c.fountain != nil {
			return
		}
		panic(fmt.Sprintf("transport: flow %d ack for bad seq %d", c.flow.ID, seq))
	}
	// A copy: entries below the scoreboard's ring are finished and
	// read-only, and every write below goes through at or ack.
	st := c.sb.get(seq)

	if p.EchoTrimmed {
		// Fast loss notification: the packet's payload was trimmed at a
		// congested queue. Queue an immediate retransmission and let the
		// policies treat it as a congestion/path signal.
		c.stats.TrimNotices++
		if !st.is(acked | dontCare | lossPending) {
			c.markLost(seq)
		}
		c.cc.OnNack(c)
		c.lb.OnNack(c)
		if p.FlowDone {
			c.finish(now)
			return
		}
		c.armRTO()
		c.trySend()
		return
	}

	info := AckInfo{
		Seq:    seq,
		Marked: p.EchoMarked,
		SentAt: p.EchoSentAt,
		IsRtx:  p.EchoRtx,
		Now:    now,
	}
	// RTT sampling (Karn's rule: skip retransmitted packets).
	if !p.EchoRtx {
		if rtt := now - p.EchoSentAt; rtt > 0 {
			info.RTT = rtt
			c.updateRTT(rtt)
		}
	}

	// Any ACK for a packet we believe is in flight removes it from the
	// in-flight accounting, including probes of already-acked packets.
	d := c.desc(seq)
	if st.is(inFlight) {
		c.sb.at(seq).clear(inFlight)
		c.inFlight -= int64(d.wire)
	}
	if !st.is(acked) {
		c.sb.ack(seq)
		info.Bytes = d.wire
		c.stats.BytesAcked += int64(info.Bytes)
		c.rtoBackoff = 0
		c.lastProgress = now
		if d.block >= 0 && !st.is(dontCare) {
			c.blockAcked[d.block]++
		}
	}

	// Receiver-confirmed block completion lets the sender drop stragglers.
	if p.AckBlock >= 0 && p.AckBlockOK {
		c.satisfyBlock(p.AckBlock)
	}
	if p.EchoSentAt > c.maxAckedSent {
		c.maxAckedSent = p.EchoSentAt
	}
	c.advanceLowestUnacked()
	c.maybeFastRetransmit(info)
	c.rackSweep()

	c.cc.OnAck(c, info)
	c.lb.OnAck(c, info, p.Subflow, p.Entropy)

	if p.FlowDone {
		c.finish(now)
		return
	}
	c.armRTO()
	c.trySend()
}

// updateRTT runs the RFC 6298 estimator.
func (c *Conn) updateRTT(rtt eventq.Time) {
	if !c.hasRTT {
		c.srtt = rtt
		c.rttvar = rtt / 2
		c.hasRTT = true
		return
	}
	diff := c.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + rtt) / 8
}

// satisfyBlock marks block b decodable: unacked packets become don't-care
// and leave the in-flight accounting and retransmission queues. Entries
// already queued for retransmission stay in rtxQ but are skipped by
// nextToSend once dontCare; in-flight bytes are released exactly once here
// (lossPending entries were already released when they were declared lost).
func (c *Conn) satisfyBlock(b int32) {
	if b < 0 || int64(b) >= c.sched.blocks() || c.blockSatisfied[b] {
		return
	}
	c.blockSatisfied[b] = true
	blk := c.sched.block(int64(b))
	c.releaseDontCare(blk.start, blk.start+int64(blk.count))
	if c.extraSeqs != nil {
		for _, seq := range c.extraSeqs[b] {
			c.releaseDontCare(seq, seq+1)
		}
	}
}

// releaseDontCare marks the unfinished entries of [lo, hi) don't-care and
// drops any still-in-flight ones from the window accounting. Only entries
// with written state need it: those below the scoreboard's ring are
// finished, and never-written ones read as don't-care once their block is
// satisfied.
func (c *Conn) releaseDontCare(lo, hi int64) {
	lo, hi = c.sb.written(lo, hi)
	for seq := lo; seq < hi; seq++ {
		st := c.sb.at(seq)
		if st.is(acked | dontCare) {
			continue
		}
		st.set(dontCare)
		st.clear(lossPending)
		if st.is(inFlight) {
			st.clear(inFlight)
			c.inFlight -= int64(c.wireSize(seq))
		}
	}
}

// advanceLowestUnacked moves the fast-retransmit cursor past finished
// packets.
func (c *Conn) advanceLowestUnacked() {
	moved := false
	for c.lowestUnacked < c.sb.total() {
		if st := c.sb.get(c.lowestUnacked); st.is(acked | dontCare) {
			c.lowestUnacked++
			moved = true
			continue
		}
		break
	}
	if moved {
		c.acksAboveLow = 0
		c.sb.release(c.lowestUnacked)
	}
}

// maybeFastRetransmit implements duplicate-ACK-style loss detection with a
// RACK-flavoured guard: once DupAckThresh packets that were sent *after*
// the lowest unacked in-flight packet are acknowledged, that packet is
// declared lost and queued for retransmission. The send-time comparison
// prevents re-declaring a freshly retransmitted packet lost on ACKs of the
// original window.
func (c *Conn) maybeFastRetransmit(info AckInfo) {
	low := c.lowestUnacked
	if low >= c.sb.total() || info.Seq <= low {
		return
	}
	st := c.sb.get(low)
	if !st.is(sent) || st.is(acked|dontCare|lossPending) || !st.is(inFlight) {
		return
	}
	if info.SentAt < st.sentAt {
		return // evidence predates the candidate's last transmission
	}
	c.acksAboveLow++
	if c.acksAboveLow < c.params.DupAckThresh {
		return
	}
	c.acksAboveLow = 0
	c.markLost(low)
	c.stats.FastRetrans++
}

// rackSweep declares lost every leading outstanding packet whose last
// transmission predates the newest acked transmission by more than a
// reordering window (RACK-style time-based loss detection). It walks from
// the lowest unacked packet and stops at the first one that is not provably
// old, which keeps the per-ACK cost O(1) amortized: without it, a large
// initial burst that mostly tail-drops (incast with a BDP-sized initial
// window) leaves in-flight bytes that only RTOs would reclaim, one packet
// at a time.
func (c *Conn) rackSweep() {
	if c.maxAckedSent == 0 {
		return
	}
	win := c.srtt / 4
	if win <= 0 {
		win = c.params.BaseRTT / 4
	}
	for seq := c.lowestUnacked; seq < c.lossScanEnd(); seq++ {
		st := c.sb.get(seq)
		if st.is(acked | dontCare | lossPending) {
			continue
		}
		if !st.is(inFlight) || st.sentAt+win >= c.maxAckedSent {
			break
		}
		c.markLost(seq)
		c.stats.FastRetrans++
	}
}

// markLost declares unfinished entry seq lost: it leaves the in-flight
// accounting if it was counted there and is queued for retransmission.
func (c *Conn) markLost(seq int64) {
	st := c.sb.at(seq)
	if st.is(inFlight) {
		st.clear(inFlight)
		c.inFlight -= int64(c.wireSize(seq))
	}
	st.set(lossPending)
	c.rtxQ = append(c.rtxQ, seq)
}

// handleNack processes a UnoRC block NACK: retransmit the listed missing
// packets and tell the policies.
func (c *Conn) handleNack(p *netsim.Packet) {
	if c.completed {
		return
	}
	c.stats.NacksReceived++
	b := p.NackBlock
	if b < 0 || int64(b) >= c.sched.blocks() || c.blockSatisfied[b] {
		return
	}
	blk := c.sched.block(int64(b))
	if c.fountain != nil {
		// Rateless recovery: never retransmit the exact missing packets —
		// mint fresh repair symbols instead. Any innovative symbol
		// substitutes for any loss, so len(Missing) (the receiver's rank
		// deficit) fresh symbols suffice if they all arrive; the loss EWMA
		// pads that for the measured loss rate.
		need := len(p.Missing)
		if need > 0 {
			c.noteLossSample(need, int(blk.count))
			lr := c.lossEWMA
			if lr > 0.5 {
				lr = 0.5
			}
			pad := int(math.Ceil(float64(need) * lr / (1 - lr)))
			c.appendRepair(b, need+pad)
		}
		c.cc.OnNack(c)
		c.lb.OnNack(c)
		c.armRTO()
		c.trySend()
		return
	}
	for _, idx := range p.Missing {
		seq := blk.start + int64(idx)
		if idx < 0 || seq >= blk.start+int64(blk.count) {
			continue
		}
		st := c.sb.get(seq)
		if st.is(acked|dontCare|lossPending) || !st.is(sent) {
			continue
		}
		c.markLost(seq)
	}
	c.cc.OnNack(c)
	c.lb.OnNack(c)
	c.armRTO()
	c.trySend()
}

// handleCnm delivers a QCN congestion notification to controllers that
// opt in via the CnmReceiver extension interface.
func (c *Conn) handleCnm(p *netsim.Packet) {
	if c.completed {
		return
	}
	c.stats.CnmsReceived++
	if r, ok := c.cc.(CnmReceiver); ok {
		r.OnCnm(c, p.Feedback)
	}
}

// finish records completion and stops all timers.
func (c *Conn) finish(now eventq.Time) {
	if c.completed {
		return
	}
	c.completed = true
	c.fct = now - c.flow.Start
	c.rtoTimer.Cancel()
	c.sendTimer.Cancel()
	if c.onDone != nil {
		c.onDone(c)
	}
}
