package transport

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"uno/internal/eventq"
	"uno/internal/rng"
)

// buildSchedule is the reference oracle for the closed-form schedule: it
// materializes every entry and block of a flow's static transmission
// schedule the straightforward way, one packet at a time.
func buildSchedule(size int64, p Params) ([]pktDesc, []blockDesc) {
	if size <= 0 {
		size = 1
	}
	mtu := int64(p.MTU)
	nData := (size + mtu - 1) / mtu
	lastPayload := int(size - (nData-1)*mtu)

	if !p.EC.Enabled() {
		descs := make([]pktDesc, nData)
		for i := int64(0); i < nData; i++ {
			payload := p.MTU
			if i == nData-1 {
				payload = lastPayload
			}
			descs[i] = pktDesc{payload: payload, wire: payload + HeaderSize, block: -1, blockIdx: -1}
		}
		return descs, nil
	}

	x, y := int64(p.EC.Data), int64(p.EC.Parity)
	nBlocks := (nData + x - 1) / x
	descs := make([]pktDesc, 0, nData+nBlocks*y)
	blocks := make([]blockDesc, 0, nBlocks)
	dataLeft := nData
	for b := int64(0); b < nBlocks; b++ {
		d := x
		if dataLeft < d {
			d = dataLeft
		}
		dataLeft -= d
		start := int64(len(descs))
		maxPayload := 0
		for i := int64(0); i < d; i++ {
			payload := p.MTU
			if b*x+i == nData-1 {
				payload = lastPayload
			}
			if payload > maxPayload {
				maxPayload = payload
			}
			descs = append(descs, pktDesc{
				payload: payload, wire: payload + HeaderSize,
				block: int32(b), blockIdx: int16(i),
			})
		}
		for j := int64(0); j < y; j++ {
			descs = append(descs, pktDesc{
				payload: 0, wire: maxPayload + HeaderSize,
				block: int32(b), blockIdx: int16(d + j), parity: true,
			})
		}
		blocks = append(blocks, blockDesc{start: start, count: int16(d + y), dataCount: int16(d)})
	}
	return descs, blocks
}

// expand materializes a closed-form schedule in buildSchedule's shape.
func expand(s schedule) ([]pktDesc, []blockDesc) {
	descs := make([]pktDesc, s.n)
	for seq := range descs {
		descs[seq] = s.at(int64(seq))
	}
	var blocks []blockDesc
	for b := int64(0); b < s.blocks(); b++ {
		blocks = append(blocks, s.block(b))
	}
	return descs, blocks
}

// TestScheduleMatchesOracle: the closed form agrees with the materialized
// reference schedule entry by entry and block by block, across EC off,
// RS(8,2), the fountain scheme and parity-free blocks of 1, 4 and 16; MTUs
// of 1, 7 and 4096 bytes; sizes at and below zero; and tail blocks holding
// a single (short or full) data packet.
func TestScheduleMatchesOracle(t *testing.T) {
	ecs := []ECConfig{
		{},
		{Data: 8, Parity: 2, Scheme: SchemeRS},
		{Data: 8, Parity: 2, Scheme: SchemeFountain},
		{Data: 1, Scheme: SchemeRS},
		{Data: 4, Scheme: SchemeRS},
		{Data: 16, Scheme: SchemeRS},
	}
	r := rng.New(7)
	for _, mtu := range []int64{1, 7, 4096} {
		for _, e := range ecs {
			p := Params{MTU: int(mtu), EC: e}.withDefaults()
			if err := p.validate(); err != nil {
				t.Fatal(err)
			}
			x := int64(e.Data)
			if x == 0 {
				x = 8
			}
			sizes := []int64{-5, 0, 1, 2, mtu - 1, mtu, mtu + 1}
			for k := int64(0); k < 4; k++ {
				// Tail block with a single data packet, short and full.
				sizes = append(sizes, k*x*mtu+1, (k*x+1)*mtu)
			}
			for i := 0; i < 20; i++ {
				sizes = append(sizes, 1+int64(r.Intn(int(3000*mtu))))
			}
			for _, size := range sizes {
				checkAgainstOracle(t, size, p)
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, size int64, p Params) {
	t.Helper()
	descs, blocks := buildSchedule(size, p)
	s := newSchedule(size, p)
	if s.n != int64(len(descs)) || s.blocks() != int64(len(blocks)) {
		t.Fatalf("size %d %+v: closed form has %d entries / %d blocks, oracle %d / %d",
			size, p.EC, s.n, s.blocks(), len(descs), len(blocks))
	}
	var nData int64
	for seq, want := range descs {
		if got := s.at(int64(seq)); got != want {
			t.Fatalf("size %d mtu %d %+v: at(%d) = %+v, oracle %+v", size, p.MTU, p.EC, seq, got, want)
		}
		if !want.parity {
			nData++
		}
	}
	if s.nData != nData {
		t.Fatalf("size %d: nData %d, oracle %d", size, s.nData, nData)
	}
	for b, want := range blocks {
		if got := s.block(int64(b)); got != want {
			t.Fatalf("size %d mtu %d %+v: block(%d) = %+v, oracle %+v", size, p.MTU, p.EC, b, got, want)
		}
	}
}

// TestScheduleMintedEntries: fountain repair entries minted past the static
// schedule live in the sender's side slice, carry fresh ids and the repair
// wire size of their block (a short single-packet tail block included), and
// leave every static entry equal to the oracle.
func TestScheduleMintedEntries(t *testing.T) {
	d := newDumbbell(37, gbps100)
	params := fountainParams(d).withDefaults()
	size := int64(16*4096 + 100) // blocks of 8, 8 and a lone 100 B packet
	flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: size}
	conn := newConn(d.epA, flow, params, &FixedWindow{Window: 1 << 20}, &FixedEntropy{}, nil)
	descs, blocks := buildSchedule(size, params)
	if len(blocks) != 3 || blocks[2].dataCount != 1 {
		t.Fatalf("setup: blocks %+v", blocks)
	}

	conn.appendRepair(2, 2)
	conn.appendRepair(0, 1)
	conn.appendRepair(2, 1)
	if got, want := conn.TotalPkts(), int64(len(descs)+4); got != want {
		t.Fatalf("TotalPkts %d, want %d", got, want)
	}
	for seq, want := range descs {
		if got := conn.desc(int64(seq)); got != want {
			t.Fatalf("static entry %d = %+v after minting, oracle %+v", seq, got, want)
		}
	}
	blockWire := func(b int) int {
		w := 0
		blk := blocks[b]
		for i := int64(0); i < int64(blk.count); i++ {
			w = max(w, descs[blk.start+i].wire)
		}
		return w
	}
	for _, b := range []int32{0, 2} {
		for i, seq := range conn.extraSeqs[b] {
			want := pktDesc{wire: blockWire(int(b)), block: b, blockIdx: blocks[b].count + int16(i), parity: true}
			if seq < int64(len(descs)) {
				t.Fatalf("minted seq %d inside the static schedule", seq)
			}
			if got := conn.desc(seq); got != want {
				t.Fatalf("minted entry %d of block %d = %+v, want %+v", i, b, got, want)
			}
		}
	}
	if len(conn.extraSeqs[2]) != 3 || conn.desc(conn.extraSeqs[2][0]).wire != 100+HeaderSize {
		t.Fatalf("tail-block repair entries wrong: %v", conn.extraSeqs[2])
	}
}

// TestPktStateSize pins the sender's per-packet state at 16 bytes.
func TestPktStateSize(t *testing.T) {
	if got := unsafe.Sizeof(pktState{}); got != 16 {
		t.Fatalf("pktState is %d bytes, want 16", got)
	}
}

// TestOpenAllocBudget: opening a flow costs at most one receiver bitmap
// bit per schedule entry, plus (with EC) 32 B per block, beyond a constant.
// The schedule is never materialized, and the sender's scoreboard grows
// with the outstanding window once the flow runs, not at Open.
func TestOpenAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		ec   ECConfig
	}{
		{"plain", ECConfig{}},
		{"rs82", ECConfig{Data: 8, Parity: 2, Scheme: SchemeRS}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{MTU: 4096, EC: tc.ec}.withDefaults()
			small, big := int64(64<<10), int64(64<<20)
			grown := openAllocBytes(big, p) - openAllocBytes(small, p)
			ss, sb := newSchedule(small, p), newSchedule(big, p)
			entries, blocks := sb.n-ss.n, sb.blocks()-ss.blocks()
			budget := entries/8 + 32*blocks + 1024
			if grown > budget {
				t.Fatalf("64 MiB flow allocates %d B more than a 64 KiB one; budget %d B (%.1f B per entry)",
					grown, budget, float64(grown)/float64(entries))
			}
		})
	}
}

// openAllocBytes returns the fewest heap bytes Open allocated for a
// size-byte flow over a few fresh dumbbells.
func openAllocBytes(size int64, p Params) int64 {
	best := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		d := newDumbbell(1, gbps100)
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: size}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MustOpen(d.epA, d.epB, flow, p, &FixedWindow{}, &FixedEntropy{}, nil)
		runtime.ReadMemStats(&after)
		best = min(best, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return best
}

// TestOpenRejectsOversizedECBlock: block indices travel in the int16
// BlockIdx header field, so Open must refuse EC blocks with more than
// math.MaxInt16 packets instead of wrapping their indices.
func TestOpenRejectsOversizedECBlock(t *testing.T) {
	for _, tc := range []struct {
		data, parity int
		ok           bool
	}{
		{40000, 2, false},
		{math.MaxInt16, 1, false},
		{math.MaxInt16 - 2, 3, false},
		{math.MaxInt, math.MaxInt, false},
		{math.MaxInt16 - 2, 2, true},
		{8, 2, true},
	} {
		d := newDumbbell(1, gbps100)
		p := d.baseParams()
		p.EC = ECConfig{Data: tc.data, Parity: tc.parity, Scheme: SchemeRS, BlockTimeout: eventq.Millisecond}
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: 164 << 20}
		_, err := Open(d.epA, d.epB, flow, p, &FixedWindow{}, &FixedEntropy{}, nil)
		if (err == nil) != tc.ok {
			t.Fatalf("EC(%d,%d): Open error %v, want ok=%v", tc.data, tc.parity, err, tc.ok)
		}
	}
}
