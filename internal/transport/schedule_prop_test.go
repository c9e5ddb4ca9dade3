package transport

import (
	"testing"
	"testing/quick"

	"uno/internal/eventq"
)

// TestBuildScheduleProperty checks the schedule invariants over random
// flow sizes and EC configurations:
//   - data payloads sum exactly to the flow size,
//   - every wire size covers its payload plus the header,
//   - with EC, blocks are contiguous, labeled consistently, and carry
//     exactly EC.Parity parity packets each,
//   - without EC, no packet carries block metadata.
func TestBuildScheduleProperty(t *testing.T) {
	f := func(sizeRaw uint32, mtuRaw uint16, dRaw, pRaw uint8, useEC bool) bool {
		size := int64(sizeRaw%(1<<22)) + 1 // 1 B .. 4 MiB
		p := Params{MTU: int(mtuRaw%8192) + 256}
		if useEC {
			p.EC = ECConfig{
				Data:         int(dRaw%15) + 1,
				Parity:       int(pRaw % 5),
				BlockTimeout: eventq.Millisecond,
			}
		}
		p = p.withDefaults()
		descs, blocks := expand(newSchedule(size, p))

		var payload int64
		for _, d := range descs {
			payload += int64(d.payload)
			if d.wire < d.payload+HeaderSize {
				return false
			}
			if !p.EC.Enabled() && (d.block != -1 || d.parity) {
				return false
			}
		}
		if payload != size {
			return false
		}
		if !p.EC.Enabled() {
			return blocks == nil
		}

		// Block structure.
		seq := int64(0)
		for b, blk := range blocks {
			if blk.start != seq {
				return false // contiguous layout
			}
			parity := 0
			for i := int16(0); i < blk.count; i++ {
				d := descs[blk.start+int64(i)]
				if d.block != int32(b) || d.blockIdx != i {
					return false
				}
				if d.parity {
					parity++
					if d.payload != 0 {
						return false
					}
				}
			}
			if parity != p.EC.Parity {
				return false
			}
			if int(blk.dataCount)+parity != int(blk.count) {
				return false
			}
			seq += int64(blk.count)
		}
		return seq == int64(len(descs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReceiverSenderScheduleAgreement: both ends derive the same schedule
// independently — any drift would desynchronize block accounting.
func TestReceiverSenderScheduleAgreement(t *testing.T) {
	f := func(sizeRaw uint32, useEC bool) bool {
		size := int64(sizeRaw%(1<<20)) + 1
		d := newDumbbell(1, gbps100)
		p := d.baseParams()
		if useEC {
			p.EC = ECConfig{Data: 8, Parity: 2, BlockTimeout: eventq.Millisecond}
		}
		flow := &Flow{ID: 1, Src: d.a, Dst: d.b, Size: size}
		conn := MustOpen(d.epA, d.epB, flow, p, &FixedWindow{}, &FixedEntropy{}, nil)
		rcv := d.epB.Receiver(1)
		if conn.sched != rcv.sched || int64(len(conn.state)) != rcv.sched.n {
			return false
		}
		for b := range rcv.blocks {
			blk := conn.sched.block(int64(b))
			if blk.count != rcv.blocks[b].count || blk.dataCount != rcv.blocks[b].dataCount {
				return false
			}
		}
		return int64(len(rcv.blocks)) == conn.sched.blocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
