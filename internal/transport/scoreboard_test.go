package transport

import (
	"testing"

	"uno/internal/eventq"
	"uno/internal/netsim"
	"uno/internal/rng"
)

// board is what the don't-care release needs of a scoreboard: the ring
// and the dense reference each walk their own written range.
type board interface {
	at(seq int64) *pktState
	written(lo, hi int64) (int64, int64)
}

// denseBoard is the reference scoreboard: the per-entry slice the sender
// kept before the ring.
type denseBoard struct{ st []pktState }

func (d *denseBoard) total() int64                        { return int64(len(d.st)) }
func (d *denseBoard) get(seq int64) pktState              { return d.st[seq] }
func (d *denseBoard) at(seq int64) *pktState              { return &d.st[seq] }
func (d *denseBoard) release(int64)                       {}
func (d *denseBoard) written(lo, hi int64) (int64, int64) { return lo, hi }
func (d *denseBoard) mint()                               { d.st = append(d.st, pktState{flags: lossPending}) }
func (d *denseBoard) ack(seq int64) {
	d.st[seq].set(acked)
	d.st[seq].clear(lossPending)
}

// sbModel drives a ring scoreboard and a dense one in lockstep through the
// sender's state transitions (a condensed copy of Conn's: transmit, ACK,
// trim, NACK, RTO, RACK and fast retransmit, block satisfaction, fountain
// mints and the final-ACK probe). Every read goes to both boards and is
// compared; decisions follow the dense board.
type sbModel struct {
	t         testing.TB
	ring      *scoreboard
	dense     *denseBoard
	sched     schedule
	fountain  bool
	satisfied []bool    // shared with ring
	mintBlock []int32   // block of minted entry n+i
	extra     [][]int64 // per-block minted seqs

	nextNew, lowestUnacked, maxSentEnd int64
	rtxQ                               []int64
	inFlight                           int64
	acksAboveLow                       int
	now, maxAckedSent                  eventq.Time
}

func newSBModel(t testing.TB, size int64, p Params) *sbModel {
	m := &sbModel{t: t, sched: newSchedule(size, p.withDefaults()), fountain: p.EC.Fountain()}
	nb := m.sched.blocks()
	m.satisfied = make([]bool, nb)
	m.extra = make([][]int64, nb)
	sb := newScoreboard(m.sched, m.satisfied)
	m.ring = &sb
	m.dense = &denseBoard{st: make([]pktState, m.sched.n)}
	return m
}

func (m *sbModel) wire(seq int64) int64 { return 1 + seq%3 }

func (m *sbModel) total() int64 {
	if r, d := m.ring.total(), m.dense.total(); r != d {
		m.t.Fatalf("total: ring %d, dense %d", r, d)
	}
	return m.dense.total()
}

func (m *sbModel) blockOf(seq int64) int32 {
	if seq >= m.sched.n {
		return m.mintBlock[seq-m.sched.n]
	}
	if m.sched.x == 0 {
		return -1
	}
	return m.sched.at(seq).block
}

// get reads entry seq from both boards. Below the ring only finishedness
// and the acked bit survive; everywhere else the records must be equal.
func (m *sbModel) get(seq int64) pktState {
	r, d := m.ring.get(seq), m.dense.get(seq)
	if seq < m.sched.n && seq < m.ring.base {
		if !d.is(acked|dontCare) || r.flags&^(acked|dontCare) != 0 ||
			r.is(acked) != d.is(acked) || r.is(acked) == r.is(dontCare) {
			m.t.Fatalf("finished entry %d below ring base %d: ring %+v, dense %+v", seq, m.ring.base, r, d)
		}
	} else if r != d {
		m.t.Fatalf("entry %d: ring %+v, dense %+v", seq, r, d)
	}
	return d
}

// update applies one write to entry seq on both boards.
func (m *sbModel) update(seq int64, f func(*pktState)) {
	f(m.ring.at(seq))
	f(m.dense.at(seq))
}

// check compares every entry and the window invariants.
func (m *sbModel) check() {
	var inFlightBytes int64
	for seq := int64(0); seq < m.total(); seq++ {
		if m.get(seq).is(inFlight) {
			inFlightBytes += m.wire(seq)
		}
	}
	if inFlightBytes != m.inFlight {
		m.t.Fatalf("in-flight bytes %d, entries say %d", m.inFlight, inFlightBytes)
	}
	n, c := m.sched.n, int64(len(m.ring.ring))
	wantMask := int64(-1) // the ring spans the whole schedule
	if c < n {
		wantMask = c - 1
	}
	if c > n || c < n && c&(c-1) != 0 || c > 0 && m.ring.mask != wantMask {
		m.t.Fatalf("ring capacity %d, mask %d for %d entries", c, m.ring.mask, n)
	}
	if want := min(m.lowestUnacked, n-1); m.ring.base != want || m.ring.end < m.ring.base || m.ring.end-m.ring.base > c {
		m.t.Fatalf("ring window [%d, %d) cap %d, lowestUnacked %d", m.ring.base, m.ring.end, c, m.lowestUnacked)
	}
}

func (m *sbModel) nextToSend() int64 {
	for len(m.rtxQ) > 0 {
		seq := m.rtxQ[0]
		if st := m.get(seq); st.is(acked|dontCare|inFlight) || !st.is(lossPending) {
			m.rtxQ = m.rtxQ[1:]
			continue
		}
		return seq
	}
	for m.nextNew < m.total() {
		if st := m.get(m.nextNew); st.is(dontCare | sent | lossPending) {
			m.nextNew++
			continue
		}
		return m.nextNew
	}
	return -1
}

func (m *sbModel) transmit(seq int64) {
	st := m.get(seq)
	m.now++
	m.update(seq, func(s *pktState) {
		s.sentAt, s.entropy, s.subflow = m.now, uint32(m.now)*2654435761, int8(m.now%5)
		s.set(sent | inFlight)
		s.clear(lossPending)
		if s.rtxCount < 255 {
			s.rtxCount++
		}
	})
	if !st.is(inFlight) {
		m.inFlight += m.wire(seq)
	}
	if seq == m.nextNew {
		m.nextNew++
	}
	m.maxSentEnd = max(m.maxSentEnd, seq+1)
}

func (m *sbModel) markLost(seq int64) {
	st := m.get(seq)
	m.update(seq, func(s *pktState) {
		s.clear(inFlight)
		s.set(lossPending)
	})
	if st.is(inFlight) {
		m.inFlight -= m.wire(seq)
	}
	m.rtxQ = append(m.rtxQ, seq)
}

func (m *sbModel) handleAck(seq int64, trimmed, blockOK bool) {
	st := m.get(seq)
	if trimmed {
		if !st.is(acked | dontCare | lossPending) {
			m.markLost(seq)
		}
		return
	}
	if st.is(inFlight) {
		m.update(seq, func(s *pktState) { s.clear(inFlight) })
		m.inFlight -= m.wire(seq)
	}
	if !st.is(acked) {
		m.ring.ack(seq)
		m.dense.ack(seq)
	}
	if b := m.blockOf(seq); blockOK && b >= 0 {
		m.satisfy(b)
	}
	m.maxAckedSent = max(m.maxAckedSent, st.sentAt)
	m.advance()
	m.fastRetransmit(seq, st.sentAt)
	m.rackSweep()
}

func (m *sbModel) advance() {
	moved := false
	for m.lowestUnacked < m.total() && m.get(m.lowestUnacked).is(acked|dontCare) {
		m.lowestUnacked++
		moved = true
	}
	if moved {
		m.acksAboveLow = 0
		m.ring.release(m.lowestUnacked)
		m.dense.release(m.lowestUnacked)
	}
}

func (m *sbModel) fastRetransmit(seq int64, sentAt eventq.Time) {
	low := m.lowestUnacked
	if low >= m.total() || seq <= low {
		return
	}
	st := m.get(low)
	if !st.is(sent) || st.is(acked|dontCare|lossPending) || !st.is(inFlight) || sentAt < st.sentAt {
		return
	}
	if m.acksAboveLow++; m.acksAboveLow >= 3 {
		m.acksAboveLow = 0
		m.markLost(low)
	}
}

func (m *sbModel) scanEnd() int64 { return max(m.nextNew, m.maxSentEnd) }

func (m *sbModel) rackSweep() {
	for seq := m.lowestUnacked; seq < m.scanEnd(); seq++ {
		st := m.get(seq)
		if st.is(acked | dontCare | lossPending) {
			continue
		}
		if !st.is(inFlight) || st.sentAt+4 >= m.maxAckedSent {
			break
		}
		m.markLost(seq)
	}
}

// releaseDontCare runs the release on each board over its own written
// range: the ring skips finished and never-written entries, the dense
// board visits every one, and both must free the same bytes.
func (m *sbModel) releaseDontCare(lo, hi int64) {
	release := func(b board) (bytes int64) {
		l, h := b.written(lo, hi)
		for seq := l; seq < h; seq++ {
			st := b.at(seq)
			if st.is(acked | dontCare) {
				continue
			}
			st.set(dontCare)
			st.clear(lossPending)
			if st.is(inFlight) {
				st.clear(inFlight)
				bytes += m.wire(seq)
			}
		}
		return bytes
	}
	r, d := release(m.ring), release(m.dense)
	if r != d {
		m.t.Fatalf("release [%d, %d): ring freed %d bytes, dense %d", lo, hi, r, d)
	}
	m.inFlight -= d
}

func (m *sbModel) satisfy(b int32) {
	if m.satisfied[b] {
		return
	}
	m.satisfied[b] = true
	blk := m.sched.block(int64(b))
	m.releaseDontCare(blk.start, blk.start+int64(blk.count))
	for _, seq := range m.extra[b] {
		m.releaseDontCare(seq, seq+1)
	}
}

func (m *sbModel) mint(b int32, k int) {
	for i := 0; i < k; i++ {
		seq := m.total()
		m.mintBlock = append(m.mintBlock, b)
		m.ring.mint()
		m.dense.mint()
		m.extra[b] = append(m.extra[b], seq)
		m.rtxQ = append(m.rtxQ, seq)
	}
}

func (m *sbModel) nack(b int32, missing []int16) {
	if m.satisfied[b] {
		return
	}
	if m.fountain {
		m.mint(b, len(missing))
		return
	}
	blk := m.sched.block(int64(b))
	for _, idx := range missing {
		seq := blk.start + int64(idx)
		if idx < 0 || seq >= blk.start+int64(blk.count) {
			continue
		}
		if st := m.get(seq); st.is(acked|dontCare|lossPending) || !st.is(sent) {
			continue
		}
		m.markLost(seq)
	}
}

// rto declares lost every outstanding entry sent at least rto ago, or
// probes with the last entry once everything is sent and finished.
func (m *sbModel) rto(rto eventq.Time) {
	oldest := int64(-1)
	for seq := m.lowestUnacked; seq < m.scanEnd(); seq++ {
		if st := m.get(seq); st.is(inFlight) && !st.is(acked|dontCare) {
			oldest = seq
		}
	}
	switch {
	case oldest >= 0:
		for seq := m.lowestUnacked; seq < m.scanEnd(); seq++ {
			st := m.get(seq)
			if st.is(acked|dontCare|lossPending) || !st.is(inFlight) {
				continue
			}
			if st.sentAt <= m.now-rto {
				m.markLost(seq)
			}
		}
	case m.nextNew >= m.total() && len(m.rtxQ) == 0:
		m.transmit(m.total() - 1)
	}
}

// sentEntry picks an entry that has been transmitted, starting the search
// at from and wrapping; -1 if none has.
func (m *sbModel) sentEntry(from int64) int64 {
	n := m.total()
	for i := int64(0); i < n; i++ {
		seq := (from + i) % n
		if seq < m.sched.n && seq < m.ring.base {
			// Below the ring the model reads the dense record, which still
			// knows whether the entry went out.
			if m.dense.get(seq).is(sent) {
				return seq
			}
			continue
		}
		if m.get(seq).is(sent) {
			return seq
		}
	}
	return -1
}

// runScoreboardScript decodes data into a schedule and a sequence of
// transitions, runs them through both boards and compares every read.
func runScoreboardScript(t testing.TB, data []byte) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	p := Params{MTU: 100}
	switch next() % 3 {
	case 1:
		p.EC = ECConfig{Data: 4, Parity: 2, Scheme: SchemeRS}
	case 2:
		p.EC = ECConfig{Data: 4, Parity: 2, Scheme: SchemeFountain}
	}
	m := newSBModel(t, int64(next()%48)*100+int64(next()%100), p)
	if k := next() % 24; k > 0 {
		m.ring.reserve(int64(k)) // as Launch does for the first window
	}
	for pos < len(data) {
		op, arg := next(), next()
		switch op % 8 {
		case 0, 1: // transmit up to a small window's worth
			for i := 0; i <= arg%6; i++ {
				seq := m.nextToSend()
				if seq < 0 {
					break
				}
				m.transmit(seq)
			}
		case 2: // in-order ACK at the lowest unacked entry
			if m.lowestUnacked < m.total() && m.get(m.lowestUnacked).is(sent) {
				m.handleAck(m.lowestUnacked, false, arg&1 != 0)
			}
		case 3: // ACK of any sent entry: out of order, duplicate or below the ring
			if seq := m.sentEntry(int64(arg)); seq >= 0 {
				m.handleAck(seq, false, arg&0x80 != 0)
			}
		case 4: // trimmed-payload notice
			if seq := m.sentEntry(int64(arg)); seq >= 0 {
				m.handleAck(seq, true, false)
			}
		case 5: // block NACK listing a few missing indices
			if nb := int64(len(m.satisfied)); nb > 0 {
				missing := []int16{int16(arg % 7), int16(arg / 7 % 7), -1}
				m.nack(int32(int64(arg/3)%nb), missing[:1+arg%3])
			}
		case 6: // retransmission timeout or final-ACK probe
			m.now += eventq.Time(arg % 16)
			m.rto(eventq.Time(1 + arg%8))
		case 7: // receiver-confirmed block, or a proactive fountain mint
			if nb := int64(len(m.satisfied)); nb > 0 {
				b := int32(int64(arg>>1) % nb)
				if m.fountain && arg&1 != 0 {
					if !m.satisfied[b] {
						m.mint(b, 1+arg%3)
					}
				} else {
					m.satisfy(b)
				}
			}
		}
		m.check()
	}
}

// TestScoreboardMatchesDense runs seeded random transition scripts through
// the ring scoreboard and the dense reference.
func TestScoreboardMatchesDense(t *testing.T) {
	r := rng.New(15)
	for i := 0; i < 3000; i++ {
		data := make([]byte, 3+r.Intn(400))
		for j := range data {
			data[j] = byte(r.Uint32())
		}
		runScoreboardScript(t, data)
	}
}

// FuzzScoreboard is the open-ended form of TestScoreboardMatchesDense.
func FuzzScoreboard(f *testing.F) {
	f.Add([]byte{0, 10, 0})
	// RS(4,2): send, in-order and late ACKs, a NACK, an RTO, a probe.
	f.Add([]byte{1, 20, 0, 0, 5, 2, 0, 3, 9, 2, 1, 5, 12, 6, 40, 0, 5, 3, 200, 6, 3, 6, 3})
	// Fountain: send, satisfy, mint, trimmed notices.
	f.Add([]byte{2, 30, 50, 1, 5, 7, 3, 4, 2, 7, 4, 0, 5, 2, 0, 6, 7, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("script longer than the budget")
		}
		runScoreboardScript(t, data)
	})
}

// spanProbe is FixedEntropy that records the widest window the sender's
// ring has held as each packet goes out.
type spanProbe struct {
	FixedEntropy
	peak int64
}

func (s *spanProbe) Assign(c *Conn, p *netsim.Packet) {
	s.FixedEntropy.Assign(c, p)
	s.peak = max(s.peak, c.sb.end-c.sb.base)
}

// TestSenderStateBoundedByWindow: a 64 MiB flow completes with its ring
// capacity within twice its peak outstanding span and within an eighth of
// its schedule.
func TestSenderStateBoundedByWindow(t *testing.T) {
	d := newDumbbell(9, gbps100)
	// Drop every 500th first transmission, so recovery holds lowestUnacked
	// back while the window runs ahead.
	d.mid.SetLoss(filterLoss{fn: func(p *netsim.Packet) bool { return !p.IsRtx && p.Seq%500 == 499 }})
	probe := &spanProbe{}
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 64 << 20}
	conn := d.run(flow, d.baseParams(), &FixedWindow{Window: 64 * 4160}, probe)
	if !conn.Completed() {
		t.Fatalf("flow did not complete: %d of %d entries below lowestUnacked", conn.lowestUnacked, conn.TotalPkts())
	}
	if conn.stats.PktsRetrans == 0 {
		t.Fatal("no retransmissions: the loss filter did not bite")
	}
	c := int64(len(conn.sb.ring))
	if c > 2*probe.peak || c > conn.sched.n/8 {
		t.Fatalf("ring capacity %d: peak span %d, schedule %d entries", c, probe.peak, conn.sched.n)
	}
	t.Logf("ring capacity %d, peak span %d, schedule %d entries", c, probe.peak, conn.sched.n)
}
