package interconnect

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FuzzRingBuffer checks DESIGN invariant 9 against a reference queue: the
// ring is FIFO, delivers payloads intact, and is bounded (Send fails
// exactly when the model queue is at capacity, Recv exactly when empty).
// Each input byte is one operation: even = send a payload whose length and
// contents derive from the byte and a running sequence number, odd = recv.
// A recv whose second bit is set uses RecvAppend onto a non-empty prefix
// instead of Recv, and must yield exactly prefix + what Recv would return
// (the prefix alone when the ring is empty).
func FuzzRingBuffer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 4, 1, 3, 5})                         // fill then drain
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})       // overfill, overdrain
	f.Add([]byte{254, 1, 252, 1, 250, 1, 0, 1})             // max-size payloads
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}) // wraparound churn
	f.Add([]byte{7, 254, 3, 100, 31, 0, 2, 15, 11, 35})     // RecvAppend onto prefixes, empty and not
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		const slots, slotSize = 4, 32
		plat := hw.NewPlatform(hw.DefaultConfig(mem.Separated))
		plat.Engine.Spawn("fuzz", 0, func(th *sim.Thread) {
			pt := plat.NewPort(mem.NodeX86, 0, th)
			r := NewRing(pt, 0x10000, slots, slotSize)
			var model [][]byte
			seq := byte(0)
			for i, op := range ops {
				if op&1 == 0 {
					n := int(op>>1) % (r.MaxPayload() + 1)
					payload := make([]byte, n)
					for j := range payload {
						payload[j] = seq + byte(j)
					}
					ok := r.Send(pt, payload)
					if want := len(model) < slots; ok != want {
						t.Errorf("op %d: Send = %v with %d/%d queued, want %v", i, ok, len(model), slots, want)
						return
					}
					if ok {
						model = append(model, payload)
						seq++
					}
				} else {
					var got []byte
					var ok bool
					if op&2 == 0 {
						got, ok = r.Recv(pt)
					} else {
						prefix := []byte{op, byte(i), seq}
						got, ok = r.RecvAppend(pt, append(make([]byte, 0, int(op>>2)%8), prefix...))
						if !bytes.Equal(got[:min(len(got), len(prefix))], prefix) {
							t.Errorf("op %d: RecvAppend clobbered its prefix: %x", i, got)
							return
						}
						if !ok && len(got) != len(prefix) {
							t.Errorf("op %d: RecvAppend on an empty ring grew dst to %x", i, got)
							return
						}
						got = got[len(prefix):]
					}
					if want := len(model) > 0; ok != want {
						t.Errorf("op %d: Recv ok = %v with %d queued, want %v", i, ok, len(model), want)
						return
					}
					if ok {
						want := model[0]
						model = model[1:]
						if !bytes.Equal(got, want) {
							t.Errorf("op %d: Recv = %x, want %x (FIFO/payload violated)", i, got, want)
							return
						}
					}
				}
				if len(model) > slots {
					t.Errorf("op %d: model holds %d > %d messages, ring unbounded", i, len(model), slots)
					return
				}
				if r.Empty(pt) != (len(model) == 0) || r.Full(pt) != (len(model) == slots) {
					t.Errorf("op %d: Empty/Full disagree with %d queued", i, len(model))
					return
				}
			}
		})
		if err := plat.Engine.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
