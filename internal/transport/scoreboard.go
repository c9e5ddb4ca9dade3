package transport

import "fmt"

// scoreboard holds a sender's per-entry state. Full 16 B pktState records
// exist only for the entries the sender can still act on, so a flow's
// memory scales with its outstanding window rather than its size:
//
//   - Static entries [base, end) live in a ring at slot seq&mask. end is one
//     past the highest entry ever written, which is maxSentEnd on every
//     real path; base is lowestUnacked, except that the last static entry
//     never leaves the ring, because the final-ACK probe re-sends it with
//     its full state. The ring is a power of two, sized for the first
//     window and doubling when a write would overrun it, until that power
//     of two would reach the schedule length n: then it holds all n entries
//     and mask is -1, so slot seq&mask is seq itself.
//   - Below base every entry is finished: acked if its bit is set in the
//     acked bitmap, don't-care otherwise. The bitmap is what lets a late or
//     duplicate ACK below the ring dedupe exactly: without it the sender
//     could not tell an acked entry from a don't-care one it has yet to see
//     an ACK for, and would count the bytes or the block ack twice.
//   - Static entries at or past end were never written: don't-care if their
//     block is satisfied, blank otherwise.
//   - Fountain-minted entries (seq >= n) keep full state in a side slice,
//     parallel to Conn.minted.
//
// get reads any entry; at returns a writable record and may only be used at
// or above base, where the sender's state transitions happen. The one write
// below base, a late ACK of a don't-care entry, goes through ack.
type scoreboard struct {
	n         int64  // static schedule entries
	stride    int64  // EC block length x+y; 0 without EC
	satisfied []bool // per-block decodable flags, shared with Conn.blockSatisfied

	ring      []pktState // static entries [base, end) at seq&mask
	mask      int64
	base, end int64
	acked     []uint64   // acked bit per static entry; allocated on the first ACK
	minted    []pktState // entry seq >= n at minted[seq-n]
}

func newScoreboard(s schedule, satisfied []bool) scoreboard {
	b := scoreboard{n: s.n, satisfied: satisfied}
	if s.x != 0 {
		b.stride = s.x + s.y
	}
	return b
}

// total returns the schedule length, static plus minted.
func (b *scoreboard) total() int64 { return b.n + int64(len(b.minted)) }

// get returns the state of entry seq, 0 <= seq < total().
func (b *scoreboard) get(seq int64) pktState {
	if seq >= b.base && seq < b.end {
		return b.ring[seq&b.mask]
	}
	return b.getOutside(seq)
}

// getOutside is get for an entry outside the ring.
func (b *scoreboard) getOutside(seq int64) pktState {
	switch {
	case seq >= b.n:
		return b.minted[seq-b.n]
	case seq >= b.end:
		return pktState{flags: b.blank(seq)}
	case b.isAcked(seq):
		return pktState{flags: acked}
	}
	return pktState{flags: dontCare}
}

// at returns the writable state of entry seq, which must not lie below
// base. A static entry past end is materialized first.
func (b *scoreboard) at(seq int64) *pktState {
	if seq >= b.base && seq < b.end {
		return &b.ring[seq&b.mask]
	}
	return b.atOutside(seq)
}

// atOutside is at for an entry outside the ring.
func (b *scoreboard) atOutside(seq int64) *pktState {
	switch {
	case seq >= b.n:
		return &b.minted[seq-b.n]
	case seq < b.base:
		panic(fmt.Sprintf("transport: scoreboard write to finished entry %d below %d", seq, b.base))
	}
	b.extend(seq + 1)
	return &b.ring[seq&b.mask]
}

// ack marks entry seq acknowledged and no longer pending retransmission.
func (b *scoreboard) ack(seq int64) {
	if seq < b.n {
		if b.acked == nil {
			b.acked = make([]uint64, (b.n+63)/64)
		}
		b.acked[seq>>6] |= 1 << (uint64(seq) & 63)
		if seq < b.base {
			return
		}
	}
	st := b.at(seq)
	st.set(acked)
	st.clear(lossPending)
}

// release drops the entries below low, which must all be finished, from
// the ring. The last static entry stays.
func (b *scoreboard) release(low int64) {
	low = min(low, b.n-1)
	if low <= b.base {
		return
	}
	b.base = low
	b.end = max(b.end, low)
}

// written clamps [lo, hi) to the entries that hold written state: the ring
// for a static range, the range itself for a minted one. Entries outside
// it are finished or blank.
func (b *scoreboard) written(lo, hi int64) (int64, int64) {
	if lo >= b.n {
		return lo, hi
	}
	return max(lo, b.base), min(hi, b.end)
}

// mint appends the state of a fresh fountain repair entry, queued for
// dispatch.
func (b *scoreboard) mint() { b.minted = append(b.minted, pktState{flags: lossPending}) }

// blank returns the flags of a never-written static entry.
func (b *scoreboard) blank(seq int64) pktFlags {
	if b.stride != 0 && b.satisfied[seq/b.stride] {
		return dontCare
	}
	return 0
}

func (b *scoreboard) isAcked(seq int64) bool {
	w := seq >> 6
	return w < int64(len(b.acked)) && b.acked[w]&(1<<(uint64(seq)&63)) != 0
}

// reserve sizes a still-empty ring for k entries. The first window goes
// out at once, so growing to it step by step would only add garbage.
func (b *scoreboard) reserve(k int64) {
	if b.ring == nil {
		b.grow(k)
	}
}

// grow reallocates the ring for a window of span entries: the next power
// of two at or above both span and twice the current capacity, or all n
// entries if that is no smaller.
func (b *scoreboard) grow(span int64) {
	c := max(2*int64(len(b.ring)), 1)
	for c < span {
		c *= 2
	}
	mask := c - 1
	if c >= b.n {
		c, mask = b.n, -1
	}
	ring := make([]pktState, c)
	for seq := b.base; seq < b.end; seq++ {
		ring[seq&mask] = b.ring[seq&b.mask]
	}
	b.ring, b.mask = ring, mask
}

// extend materializes static entries [end, to) as blank records, growing
// the ring first if the window would overrun it.
func (b *scoreboard) extend(to int64) {
	if span := to - b.base; span > int64(len(b.ring)) {
		b.grow(span)
	}
	for seq := b.end; seq < to; seq++ {
		b.ring[seq&b.mask] = pktState{flags: b.blank(seq)}
	}
	b.end = to
}
