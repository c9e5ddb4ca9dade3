package transport

import (
	"uno/internal/ec"
	"uno/internal/eventq"
	"uno/internal/netsim"
)

// rcvBlock tracks one erasure-coding block at the receiver.
type rcvBlock struct {
	got       int16
	dataCount int16
	count     int16
	complete  bool
	// timer is the block's NACK timer, created lazily on first arming and
	// reused (rearmed in place) across NACK retries.
	timer *eventq.Timer
	nacks int
}

// timerPending reports whether the block's NACK timer is armed.
func (b *rcvBlock) timerPending() bool { return b.timer != nil && b.timer.Pending() }

// Receiver is the receive side of one flow: it tracks which schedule
// entries arrived, detects block completion for erasure-coded flows, arms
// the per-block NACK timers of §4.2, and acknowledges every data packet.
type Receiver struct {
	ep     *Endpoint
	flow   *Flow
	params Params

	sched    schedule
	got      []uint64 // arrival bitmap over the static schedule
	gotCount int64    // distinct packets received
	dataGot  int64    // distinct data (non-parity) packets received
	blocks   []rcvBlock

	// Rateless (fountain) receiver state; nil under SchemeRS. Under the
	// fountain scheme a block completes when its rank decoder spans the
	// source space, and repair symbols appended past the static schedule
	// (seq >= sched.n) are accepted using their header's Block/BlockIdx.
	fountain *ec.Fountain
	decs     []*ec.FountainDecoder
	gotExtra map[int64]struct{} // arrivals beyond the static schedule

	complete   bool
	completeAt eventq.Time

	// Stats.
	DupPkts     uint64
	NacksSent   uint64
	TrimmedPkts uint64
}

// maxBlockNacks bounds NACK retries per block; beyond it the sender's RTO
// is the backstop.
const maxBlockNacks = 8

func newReceiver(ep *Endpoint, flow *Flow, params Params) *Receiver {
	sched := newSchedule(flow.Size, params)
	r := &Receiver{
		ep:     ep,
		flow:   flow,
		params: params,
		sched:  sched,
		got:    make([]uint64, (sched.n+63)/64),
	}
	if nb := sched.blocks(); nb > 0 {
		r.blocks = make([]rcvBlock, nb)
		for i := range r.blocks {
			b := sched.block(int64(i))
			r.blocks[i] = rcvBlock{dataCount: b.dataCount, count: b.count}
		}
	}
	if params.EC.Fountain() {
		r.fountain = ec.MustNewFountain(params.EC.Data, params.EC.Parity)
		r.decs = make([]*ec.FountainDecoder, len(r.blocks))
		for b := range r.decs {
			// Both endpoints derive the block seed from the flow id, so
			// symbol neighbor sets need no handshake.
			r.decs[b] = r.fountain.Decoder(
				ec.BlockSeed(uint64(flow.ID), uint64(b)), int(r.blocks[b].dataCount), 0)
		}
	}
	return r
}

// Complete reports whether the full message is reconstructable.
func (r *Receiver) Complete() bool { return r.complete }

// CompleteAt returns when the message became reconstructable.
func (r *Receiver) CompleteAt() eventq.Time { return r.completeAt }

func (r *Receiver) has(seq int64) bool {
	return r.got[seq>>6]&(1<<(uint(seq)&63)) != 0
}

func (r *Receiver) set(seq int64) {
	r.got[seq>>6] |= 1 << (uint(seq) & 63)
}

// maxExtraArrivals bounds the dynamic-arrival set so adversarial sequence
// numbers cannot grow receiver memory without bound.
const maxExtraArrivals = 1 << 16

// handleData processes an arriving data packet and responds with an ACK.
func (r *Receiver) handleData(p *netsim.Packet) {
	seq := p.Seq
	if seq < 0 {
		return
	}
	block, blockIdx, parity := int32(-1), int16(-1), false
	switch {
	case seq < r.sched.n:
		d := r.sched.at(seq)
		block, blockIdx, parity = d.block, d.blockIdx, d.parity
	case r.fountain != nil && p.IsParity && p.Block >= 0 &&
		int(p.Block) < len(r.blocks) && p.BlockIdx >= 0:
		// A fountain repair symbol appended past the static schedule: the
		// header's own block/id fields identify it. The bounds checks
		// matter — this path is reachable with adversarial input.
		block, blockIdx, parity = p.Block, p.BlockIdx, true
	default:
		return
	}

	if p.Trimmed {
		// The payload was cut at an overflowing queue: echo an immediate
		// loss notification instead of recording a delivery (NDP-style).
		r.TrimmedPkts++
		ack := r.ep.host.Network().AllocPacket()
		ack.Type = netsim.Ack
		ack.Flow = r.flow.ID
		ack.Src = r.flow.Dst.ID()
		ack.Dst = r.flow.Src.ID()
		ack.Size = netsim.AckSize
		ack.Entropy = r.ep.host.Network().Rand.Uint32()
		ack.AckSeq = seq
		ack.EchoSentAt = p.SentAt
		ack.EchoRtx = p.IsRtx
		ack.EchoTrimmed = true
		ack.AckBlock = -1
		ack.FlowDone = r.complete
		ack.Subflow = p.Subflow
		r.ep.host.Send(ack)
		return
	}

	fresh := false
	if seq < r.sched.n {
		if !r.has(seq) {
			r.set(seq)
			fresh = true
		}
	} else if _, dup := r.gotExtra[seq]; !dup && len(r.gotExtra) < maxExtraArrivals {
		if r.gotExtra == nil {
			r.gotExtra = make(map[int64]struct{})
		}
		r.gotExtra[seq] = struct{}{}
		fresh = true
	}
	if fresh {
		r.gotCount++
		if !parity {
			r.dataGot++
		}
		if block >= 0 {
			r.onBlockArrival(block, blockIdx)
		}
		r.checkComplete()
	} else {
		r.DupPkts++
	}

	blockOK := false
	if block >= 0 {
		blockOK = r.blocks[block].complete
	}
	ack := r.ep.host.Network().AllocPacket()
	ack.Type = netsim.Ack
	ack.Flow = r.flow.ID
	ack.Src = r.flow.Dst.ID()
	ack.Dst = r.flow.Src.ID()
	ack.Size = netsim.AckSize
	ack.Entropy = r.ep.host.Network().Rand.Uint32()
	ack.AckSeq = seq
	ack.EchoSentAt = p.SentAt
	ack.EchoMarked = p.ECNMarked
	ack.EchoRtx = p.IsRtx
	ack.AckBlock = block
	ack.AckBlockOK = blockOK
	ack.FlowDone = r.complete
	ack.Subflow = p.Subflow
	r.ep.host.Send(ack)
}

// onBlockArrival updates block state for a newly received packet carrying
// block symbol id.
func (r *Receiver) onBlockArrival(b int32, id int16) {
	blk := &r.blocks[b]
	if blk.complete {
		return
	}
	blk.got++
	decodable := false
	if r.fountain != nil {
		// Rateless: decodable exactly when the received neighbor sets
		// span the source space.
		dec := r.decs[b]
		if dec.Add(int(id), nil) != nil {
			return // symbol id outside the codec's range (adversarial)
		}
		decodable = dec.Decoded()
	} else {
		// MDS property: any dataCount distinct packets decode the block.
		decodable = blk.got >= blk.dataCount
	}
	if decodable {
		blk.complete = true
		if blk.timer != nil {
			blk.timer.Cancel()
		}
		return
	}
	if !blk.timerPending() && blk.got == 1 {
		r.armBlockTimer(b, r.params.EC.BlockTimeout)
	}
}

// armBlockTimer starts the NACK timer of §4.2: if the block is still not
// decodable when it fires, a NACK listing the missing packets is sent. The
// Timer is created once per block (on first arming) and rearmed in place
// for retries.
func (r *Receiver) armBlockTimer(b int32, after eventq.Time) {
	blk := &r.blocks[b]
	if blk.timer == nil {
		blk.timer = r.ep.host.Network().Sched.NewTimer(func() { r.onBlockTimeout(b) })
	}
	blk.timer.ResetAfter(after)
}

// onBlockTimeout fires the NACK path for block b.
func (r *Receiver) onBlockTimeout(b int32) {
	blk := &r.blocks[b]
	if blk.complete || r.complete {
		return
	}
	if blk.nacks >= maxBlockNacks {
		return // sender RTO takes over
	}
	blk.nacks++
	r.NacksSent++

	// Collect missing indices within the block, reusing the pooled
	// packet's NACK buffer (length zero, capacity from prior frees).
	nack := r.ep.host.Network().AllocPacket()
	missing := nack.Missing[:0]
	if r.fountain != nil {
		// Rateless: report the rank deficit as that many not-directly-
		// received source ids. Source symbols are always innovative, so
		// the deficit never exceeds the missing-source count, and the
		// sender reads len(Missing) as "mint this many fresh symbols".
		dec := r.decs[b]
		need := dec.Needed()
		direct := dec.DirectData()
		for i := int16(0); int(i) < int(blk.dataCount) && len(missing) < need; i++ {
			if direct&(1<<uint(i)) == 0 {
				missing = append(missing, i)
			}
		}
	} else {
		start := r.sched.block(int64(b)).start
		for i := int16(0); i < blk.count; i++ {
			if !r.has(start + int64(i)) {
				missing = append(missing, i)
			}
		}
	}
	nack.Type = netsim.Nack
	nack.Flow = r.flow.ID
	nack.Src = r.flow.Dst.ID()
	nack.Dst = r.flow.Src.ID()
	nack.Size = netsim.AckSize
	nack.Entropy = r.ep.host.Network().Rand.Uint32()
	nack.NackBlock = b
	nack.Missing = missing
	r.ep.host.Send(nack)
	if blk.nacks >= maxBlockNacks {
		// Retry budget spent: the sender's RTO is the backstop from here
		// on. Re-arming anyway would leave one guaranteed no-op timer
		// firing pending — a leak the pool-discipline invariant charges
		// against the run (see TestBlockNackExhaustionNoRearm).
		return
	}
	// Exponential backoff on retries, in case the NACK or the
	// retransmissions are lost too.
	backoff := r.params.EC.BlockTimeout << uint(blk.nacks)
	if max := 8 * r.params.BaseRTT; backoff > max && max > 0 {
		backoff = max
	}
	r.armBlockTimer(b, backoff)
}

// checkComplete evaluates whether the message is fully reconstructable.
func (r *Receiver) checkComplete() {
	if r.complete {
		return
	}
	if len(r.blocks) > 0 {
		for i := range r.blocks {
			if !r.blocks[i].complete {
				return
			}
		}
	} else if r.dataGot < r.sched.nData {
		return
	}
	r.complete = true
	r.completeAt = r.ep.host.Network().Sched.Now()
	for i := range r.blocks {
		if t := r.blocks[i].timer; t != nil {
			t.Cancel()
		}
	}
}
