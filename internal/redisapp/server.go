package redisapp

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// Command codes of the RESP-lite wire protocol. One request is:
//
//	cmd(1) | keyLen(4) | valLen(4) | key... | val...
//
// and one response is: status(1) | len(4) | payload...
type Command byte

// The eight commands of Figure 14.
const (
	CmdGet Command = iota + 1
	CmdSet
	CmdLPush
	CmdRPush
	CmdLPop
	CmdRPop
	CmdSAdd
	CmdMSet
)

// CommandNames lists the benchmark commands in the paper's order.
var CommandNames = []string{"get", "set", "lpush", "rpush", "lpop", "rpop", "sadd", "mset"}

// ParseCommand maps a name to its code.
func ParseCommand(name string) (Command, error) {
	for i, n := range CommandNames {
		if n == name {
			return Command(i + 1), nil
		}
	}
	return 0, fmt.Errorf("redisapp: unknown command %q", name)
}

func (c Command) String() string {
	if int(c) >= 1 && int(c) <= len(CommandNames) {
		return CommandNames[c-1]
	}
	return fmt.Sprintf("cmd(%d)", byte(c))
}

// ring geometry: slot 0 holds head (producer index) at +0 and tail
// (consumer index) at +64; request slots follow.
const (
	ringCtl      = 128
	slotSize     = 1536
	ringSlots    = 32
	reqHdr       = 9
	maxRRPayload = slotSize - reqHdr - 64
)

// BenchParams configures a Figure 14 run.
type BenchParams struct {
	Command  Command
	Requests int
	// PayloadBytes is the value size (the paper uses 1024).
	PayloadBytes int
	// Keys is the keyspace size requests cycle through.
	Keys int
}

// Validate rejects shapes the benchmark cannot run: unknown commands,
// zero/negative counts, and payloads that overflow a ring slot. Run calls
// it first; every field must be set.
func (p BenchParams) Validate() error {
	if p.Command < CmdGet || p.Command > CmdMSet {
		return &ParamError{Field: "Command", Value: int(p.Command), Reason: "unknown command code"}
	}
	if p.Requests <= 0 {
		return &ParamError{Field: "Requests", Value: p.Requests, Reason: "must be positive"}
	}
	if p.PayloadBytes <= 0 {
		return &ParamError{Field: "PayloadBytes", Value: p.PayloadBytes, Reason: "must be positive"}
	}
	if p.PayloadBytes > maxRRPayload {
		return &ParamError{Field: "PayloadBytes", Value: p.PayloadBytes,
			Reason: fmt.Sprintf("exceeds slot capacity %d", maxRRPayload)}
	}
	if p.Keys <= 0 {
		return &ParamError{Field: "Keys", Value: p.Keys, Reason: "must be positive"}
	}
	return nil
}

// BenchResult is one Figure 14 measurement.
type BenchResult struct {
	Command          Command
	Requests         int
	ServerCycles     sim.Cycles
	CyclesPerRequest float64
	Errors           int
}

// keyFor builds the deterministic key for request i.
func keyFor(p BenchParams, i int) []byte {
	return []byte(fmt.Sprintf("key:%06d", i%p.Keys))
}

// valFor builds the deterministic payload for request i.
func valFor(p BenchParams, i int) []byte {
	v := make([]byte, p.PayloadBytes)
	for j := range v {
		v[j] = byte((i*131 + j*31) % 251)
	}
	return v
}

// Run executes the benchmark on machine m: the server populates its store
// at the origin, migrates to the other ISA (its time_event handler runs
// there, §9.2.8), and then serves p.Requests requests that a NIC-side
// task deposits into origin-memory RX buffers.
func Run(m *machine.Machine, p BenchParams) (BenchResult, error) {
	if err := p.Validate(); err != nil {
		return BenchResult{}, err
	}
	res := BenchResult{Command: p.Command, Requests: p.Requests}

	var ringBase pgtable.VirtAddr
	ready := false

	serverBody := func(t *kernel.Task) error {
		// The RX ring lives in origin memory (the NIC DMAs into it).
		rb, err := t.Proc.MmapAligned(ringCtl+ringSlots*slotSize, 2<<20, kernel.VMARead|kernel.VMAWrite, "redis.rx")
		if err != nil {
			return err
		}
		if err := t.Store(rb, 8, 0); err != nil { // head
			return err
		}
		if err := t.Store(rb+64, 8, 0); err != nil { // tail
			return err
		}
		arena, err := NewArena(t, 48<<20, "redis.heap")
		if err != nil {
			return err
		}
		store, err := NewStore(t, arena, 256)
		if err != nil {
			return err
		}
		// Pre-populate so GET/LPOP/RPOP have data (the redis-benchmark
		// setup phase).
		for i := 0; i < p.Keys; i++ {
			key := keyFor(p, i)
			if err := store.Set(t, key, valFor(p, i)); err != nil {
				return err
			}
			if p.Command == CmdLPop || p.Command == CmdRPop {
				lkey := append([]byte("l:"), key...)
				need := (p.Requests + p.Keys - 1) / p.Keys
				for j := 0; j < need+1; j++ {
					if err := store.Push(t, lkey, valFor(p, i), false); err != nil {
						return err
					}
				}
			}
		}
		ringBase = rb
		ready = true

		// time_event: migrate to the remote ISA and serve from there.
		if err := t.Migrate(mem.NodeArm); err != nil {
			return err
		}
		t.BeginTimed()
		served := 0
		var vbuf []byte
		for served < p.Requests {
			head, err := t.Load(rb, 8)
			if err != nil {
				return err
			}
			tail, err := t.Load(rb+64, 8)
			if err != nil {
				return err
			}
			if head == tail {
				t.Th.Advance(400) // poll interval
				t.Th.YieldPoint()
				continue
			}
			slot := rb + ringCtl + pgtable.VirtAddr(int(tail%ringSlots)*slotSize)
			hdr, err := t.ReadBytes(slot, reqHdr)
			if err != nil {
				return err
			}
			cmd, klen, vlen, err := requestHeader(hdr)
			if err != nil {
				return err
			}
			// A header within the wire bounds can still overrun this
			// ring's smaller slot.
			if klen+vlen > slotSize-reqHdr {
				return fmt.Errorf("redisapp: request overruns its slot (klen=%d vlen=%d, slot payload max %d)",
					klen, vlen, slotSize-reqHdr)
			}
			key, err := t.ReadBytes(slot+reqHdr, klen)
			if err != nil {
				return err
			}
			var val []byte
			if vlen > 0 {
				val, err = t.ReadBytes(slot+reqHdr+pgtable.VirtAddr(klen), vlen)
				if err != nil {
					return err
				}
			}
			// Protocol parsing cost (RESP decode is byte-at-a-time work).
			t.Compute(int64(20 + (klen+vlen)/8))

			var miss int
			vbuf, miss, err = execute(t, store, vbuf[:0], cmd, key, val)
			if err != nil {
				return err
			}
			res.Errors += miss
			if err := t.Store(rb+64, 8, tail+1); err != nil {
				return err
			}
			served++
		}
		res.ServerCycles = t.TimedCycles()
		res.CyclesPerRequest = float64(res.ServerCycles) / float64(p.Requests)
		return nil
	}

	nicBody := func(t *kernel.Task) error {
		for !ready {
			t.Th.Advance(2000)
		}
		rb := ringBase
		for i := 0; i < p.Requests; i++ {
			// Flow control: wait for a free slot.
			for {
				head, err := t.Load(rb, 8)
				if err != nil {
					return err
				}
				tail, err := t.Load(rb+64, 8)
				if err != nil {
					return err
				}
				if head-tail < ringSlots {
					break
				}
				t.Th.Advance(600)
				t.Th.YieldPoint()
			}
			head, err := t.Load(rb, 8)
			if err != nil {
				return err
			}
			key := keyFor(p, i)
			var val []byte
			switch p.Command {
			case CmdGet, CmdLPop, CmdRPop:
			default:
				val = valFor(p, i)
			}
			slot := rb + ringCtl + pgtable.VirtAddr(int(head%ringSlots)*slotSize)
			// Header, key and value stay three stores: the split is part
			// of the simulated cost.
			frame := appendRequest(nil, p.Command, key, val)
			if err := t.WriteBytes(slot, frame[:reqHdr]); err != nil {
				return err
			}
			if err := t.WriteBytes(slot+reqHdr, frame[reqHdr:reqHdr+len(key)]); err != nil {
				return err
			}
			if len(val) > 0 {
				if err := t.WriteBytes(slot+reqHdr+pgtable.VirtAddr(len(key)), frame[reqHdr+len(key):]); err != nil {
					return err
				}
			}
			if err := t.Store(rb, 8, head+1); err != nil {
				return err
			}
		}
		return nil
	}

	_, err := m.RunTasks(
		machine.TaskSpec{Name: "redis-server", Origin: mem.NodeX86, ProcKey: "redis", KeepAlive: true, Body: serverBody},
		machine.TaskSpec{Name: "nic", Origin: mem.NodeX86, ProcKey: "redis", KeepAlive: true, Start: 500, Body: nicBody},
	)
	return res, err
}
