// Package transport implements the reliable, window-based transport
// framework every protocol in this reproduction runs on: byte-sequenced
// data packets, per-packet ACKs echoing ECN marks and timestamps, RTT
// estimation, fast retransmit and RTO recovery, optional pacing, optional
// UnoRC erasure-coded block framing with receiver NACK timers, and
// pluggable congestion-control and path-selection (load-balancing)
// policies.
//
// The split mirrors the paper's architecture (Fig 5): congestion control
// (UnoCC, Gemini, MPRDMA, BBR) and reliable connectivity (erasure coding +
// load balancing) are policies layered over one shared transport substrate.
package transport

import (
	"fmt"
	"math"

	"uno/internal/ec"
	"uno/internal/eventq"
	"uno/internal/netsim"
)

// HeaderSize is the per-packet header overhead in bytes added to every data
// packet's wire size.
const HeaderSize = 64

// Flow describes one message transfer.
type Flow struct {
	ID    netsim.FlowID
	Src   *netsim.Host
	Dst   *netsim.Host
	Size  int64       // application payload bytes
	Start eventq.Time // arrival time of the message at the sender

	// InterDC records whether the flow crosses datacenters; harnesses use
	// it for reporting and protocols may use it for configuration.
	InterDC bool
}

// ECConfig enables UnoRC erasure coding on a flow.
type ECConfig struct {
	// Data and Parity packets per block — the paper's default scheme is
	// (8, 2) (§5.2.3). Under the fountain scheme, Parity is the number of
	// repair symbols scheduled proactively per block, not a ceiling.
	Data, Parity int
	// BlockTimeout is the receiver's NACK timer: the estimated maximum
	// queuing + transmission delay to gather a block (§4.2).
	BlockTimeout eventq.Time
	// Scheme picks the coding scheme. The zero value (SchemeAuto) resolves
	// to the package default — SchemeRS unless -ec / UNO_EC overrides it.
	Scheme ECScheme
}

// Enabled reports whether erasure coding is configured.
func (e ECConfig) Enabled() bool { return e.Data > 0 }

// Fountain reports whether the rateless fountain scheme is active. Only
// meaningful after Params.withDefaults has resolved SchemeAuto.
func (e ECConfig) Fountain() bool { return e.Enabled() && e.Scheme == SchemeFountain }

// Params are per-flow transport parameters.
type Params struct {
	// MTU is the data packet payload size in bytes (paper default 4096).
	MTU int
	// BaseRTT is the unloaded round-trip estimate used to seed RTO and
	// pacing before any RTT sample exists.
	BaseRTT eventq.Time
	// MinRTO floors the retransmission timeout.
	MinRTO eventq.Time
	// MaxRTO caps exponential RTO backoff.
	MaxRTO eventq.Time
	// InitialCwnd in bytes. Zero defaults to one BDP-ish window chosen by
	// the congestion controller's Init.
	InitialCwnd float64
	// DupAckThresh is the number of ACKs above the lowest unacked packet
	// before fast retransmit fires. Raise it for load balancers that
	// reorder (RPS, UnoLB).
	DupAckThresh int
	// EC optionally enables erasure coding (inter-DC flows under UnoRC).
	EC ECConfig
}

// withDefaults fills unset parameters.
func (p Params) withDefaults() Params {
	if p.MTU <= 0 {
		p.MTU = 4096
	}
	if p.BaseRTT <= 0 {
		p.BaseRTT = 100 * eventq.Microsecond
	}
	if p.MinRTO <= 0 {
		p.MinRTO = 4 * p.BaseRTT
	}
	if p.MaxRTO <= 0 {
		// A tight backoff ceiling: failure-recovery experiments depend on
		// timeouts staying lively (each RTO is also a repath opportunity
		// for the load balancers), and a 64× ceiling lets one bad streak
		// sleep through hundreds of milliseconds.
		p.MaxRTO = 8 * p.MinRTO
	}
	if p.DupAckThresh <= 0 {
		p.DupAckThresh = 3
	}
	if p.EC.Enabled() {
		if p.EC.BlockTimeout <= 0 {
			p.EC.BlockTimeout = p.BaseRTT
		}
		if p.EC.Scheme == SchemeAuto {
			p.EC.Scheme = ECSchemeDefault()
		}
	}
	return p
}

// validate rejects nonsensical parameters.
func (p Params) validate() error {
	if p.EC.Data < 0 || p.EC.Parity < 0 {
		return fmt.Errorf("transport: invalid EC config %+v", p.EC)
	}
	// Block indices travel in the int16 BlockIdx header field; a larger
	// block would wrap them and corrupt block accounting at both ends.
	if p.EC.Data > math.MaxInt16 || p.EC.Parity > math.MaxInt16-p.EC.Data {
		return fmt.Errorf("transport: EC block of %d+%d packets exceeds %d",
			p.EC.Data, p.EC.Parity, math.MaxInt16)
	}
	if p.EC.Fountain() && p.EC.Data > ec.MaxFountainData {
		return fmt.Errorf("transport: fountain EC supports at most %d data packets per block, got %d",
			ec.MaxFountainData, p.EC.Data)
	}
	return nil
}

// pktDesc is one entry of a flow's transmission schedule: the sequence
// space covers data packets and, with EC enabled, the interleaved parity
// packets of each block.
type pktDesc struct {
	payload  int   // payload bytes (0 for parity packets' accounting, see wire)
	wire     int   // bytes on the wire
	block    int32 // block number (-1 without EC)
	blockIdx int16 // index within the block
	parity   bool
}

// blockDesc summarizes one erasure-coding block of the schedule.
type blockDesc struct {
	start     int64 // first schedule index of the block
	count     int16 // total packets in the block (data + parity)
	dataCount int16 // packets required to decode (= data packets)
}

// schedule is a flow's static transmission schedule in closed form. Both
// endpoints derive it independently from the flow size, the MTU and the EC
// configuration, so no control handshake is needed, and neither end
// materializes it: entries and blocks are computed on demand.
//
// Without EC the schedule is ceil(size/MTU) data packets. With EC, data
// packets are grouped into blocks of EC.Data and each block is followed by
// EC.Parity parity packets sized like the block's largest payload. Every
// block but the last is full, so block b starts at b*(EC.Data+EC.Parity).
type schedule struct {
	n           int64 // static entries (data + parity)
	nData       int64 // data packets
	mtu         int
	lastPayload int   // payload of the final data packet
	x, y        int64 // EC data and parity packets per block; x == 0 without EC
}

// newSchedule derives the schedule of a size-byte flow. A flow of at most
// zero bytes still sends one 1-byte packet.
func newSchedule(size int64, p Params) schedule {
	if size <= 0 {
		size = 1
	}
	mtu := int64(p.MTU)
	nData := (size + mtu - 1) / mtu
	s := schedule{n: nData, nData: nData, mtu: p.MTU, lastPayload: int(size - (nData-1)*mtu)}
	if p.EC.Enabled() {
		s.x, s.y = int64(p.EC.Data), int64(p.EC.Parity)
		s.n += s.blocks() * s.y
	}
	return s
}

// blocks returns the number of EC blocks (0 without EC).
func (s *schedule) blocks() int64 {
	if s.x == 0 {
		return 0
	}
	return (s.nData + s.x - 1) / s.x
}

// blockData returns the number of data packets in block b.
func (s *schedule) blockData(b int64) int64 {
	if d := s.nData - b*s.x; d < s.x {
		return d
	}
	return s.x
}

// maxPayload returns the largest payload in block b: a full MTU unless the
// block's only data packet is the flow's last.
func (s *schedule) maxPayload(b int64) int {
	if b*s.x == s.nData-1 {
		return s.lastPayload
	}
	return s.mtu
}

// block returns the layout of EC block b, 0 <= b < blocks().
func (s *schedule) block(b int64) blockDesc {
	d := s.blockData(b)
	return blockDesc{start: b * (s.x + s.y), count: int16(d + s.y), dataCount: int16(d)}
}

// at returns schedule entry seq, 0 <= seq < n.
func (s *schedule) at(seq int64) pktDesc {
	k, block, idx := seq, int32(-1), int16(-1) // k: index among data packets
	if s.x != 0 {
		b, i := seq/(s.x+s.y), seq%(s.x+s.y)
		if i >= s.blockData(b) {
			return pktDesc{wire: s.maxPayload(b) + HeaderSize, block: int32(b), blockIdx: int16(i), parity: true}
		}
		k, block, idx = b*s.x+i, int32(b), int16(i)
	}
	payload := s.mtu
	if k == s.nData-1 {
		payload = s.lastPayload
	}
	return pktDesc{payload: payload, wire: payload + HeaderSize, block: block, blockIdx: idx}
}
