// Package redisapp is the reproduction's network-serving application
// (§9.2.8): a miniature Redis whose entire keyspace — dictionary buckets,
// entries, string values, list nodes and sets — lives in simulated memory,
// so every command's pointer chase is charged through the cache and
// coherence models. The server migrates to the other ISA at its time_event
// and keeps serving requests that arrive in origin-side RX buffers,
// exactly the situation whose cost Figure 14 compares across OSes.
package redisapp

import (
	"encoding/binary"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"
)

// Value types stored in the dictionary.
const (
	typeString = 1
	typeList   = 2
	typeSet    = 3
)

// Entry layout (all fields 8 bytes):
//
//	+0  keyHash
//	+8  next entry (0 = end of chain)
//	+16 type
//	+24 valPtr (string block / list header / set header)
//	+32 keyLen
//	+40 key bytes...
const entryHdr = 40

// String block: +0 len, +8 bytes...
// List header: +0 head, +8 tail, +16 length.
// List node: +0 prev, +8 next, +16 len, +24 payload...
// Set header: a small dictionary of members (bucket array + chains).

// Arena is a bump allocator over a simulated-memory region; the store's
// objects are carved from it (Redis uses jemalloc; a bump arena keeps the
// layout deterministic while preserving the pointer-chasing behaviour).
//
// Two ownership modes share the struct. A private arena (NewArena) keeps
// its bump offset in host state — valid only while a single task (or the
// single-threaded seed server) allocates from it. A shared arena
// (NewSharedArena) keeps the offset in simulated memory, guarded by a
// futex-backed mutex, so cloned workers on either node can allocate
// concurrently: the offset word is ordinary coherent memory traffic like
// every other store field.
type Arena struct {
	base pgtable.VirtAddr
	size uint64
	off  uint64

	// Shared mode: offAddr is the simulated-memory bump offset and mu
	// serializes allocations. Both zero in private mode.
	offAddr pgtable.VirtAddr
	mu      futexMutex
}

// arenaCtl is the control-block size reserved at the base of a shared
// arena: the offset word at +0 and the allocator's futex word one cache
// line later, so bump traffic and lock traffic do not false-share.
const arenaCtl = 128

// NewArena reserves size bytes of task address space.
func NewArena(t *kernel.Task, size uint64, name string) (*Arena, error) {
	base, err := t.Proc.MmapAligned(size, 2<<20, kernel.VMARead|kernel.VMAWrite, name)
	if err != nil {
		return nil, err
	}
	return &Arena{base: base, size: size}, nil
}

// NewSharedArena reserves size bytes whose bump offset lives in simulated
// memory under a futex-backed lock, for stores shared by cloned workers.
func NewSharedArena(t *kernel.Task, size uint64, name string) (*Arena, error) {
	a, err := NewArena(t, size, name)
	if err != nil {
		return nil, err
	}
	a.offAddr = a.base
	a.mu = futexMutex{word: a.base + 64}
	if err := t.Store(a.offAddr, 8, arenaCtl); err != nil {
		return nil, err
	}
	if err := t.Store(a.mu.word, 8, 0); err != nil {
		return nil, err
	}
	return a, nil
}

// Alloc returns n bytes (8-byte aligned) of fresh arena space. On a shared
// arena the bump is a locked read-modify-write of the simulated offset
// word; on a private arena it is pure host bookkeeping (no simulated work),
// which keeps the single-threaded server's cycle counts unchanged.
func (a *Arena) Alloc(t *kernel.Task, n uint64) (pgtable.VirtAddr, error) {
	n = (n + 7) &^ 7
	if a.offAddr == 0 {
		if a.off+n > a.size {
			return 0, &StoreError{Kind: ErrArenaExhausted, Op: "alloc", Size: a.off + n, Limit: a.size}
		}
		p := a.base + pgtable.VirtAddr(a.off)
		a.off += n
		return p, nil
	}
	if err := a.mu.Lock(t); err != nil {
		return 0, err
	}
	off, err := t.Load(a.offAddr, 8)
	if err != nil {
		a.mu.Unlock(t)
		return 0, err
	}
	if off+n > a.size {
		a.mu.Unlock(t)
		return 0, &StoreError{Kind: ErrArenaExhausted, Op: "alloc", Size: off + n, Limit: a.size}
	}
	if err := t.Store(a.offAddr, 8, off+n); err != nil {
		a.mu.Unlock(t)
		return 0, err
	}
	if err := a.mu.Unlock(t); err != nil {
		return 0, err
	}
	return a.base + pgtable.VirtAddr(off), nil
}

// Prefault touches the first limit bytes of the arena (clamped to its
// size), one read per page, so demand-zero faults happen when the arena
// is built instead of inside the timed serve window — the simulated
// analogue of production redis pre-touching its heap. Loads, not stores:
// the fault handlers map anonymous pages writable on first touch, and a
// load never clobbers the control words a shared arena keeps at its base.
func (a *Arena) Prefault(t *kernel.Task, limit uint64) error {
	if limit > a.size {
		limit = a.size
	}
	for off := uint64(0); off < limit; off += mem.PageSize {
		if _, err := t.Load(a.base+pgtable.VirtAddr(off), 8); err != nil {
			return err
		}
	}
	return nil
}

// Store is the in-memory database.
type Store struct {
	arena    *Arena
	buckets  pgtable.VirtAddr // array of nBuckets u64 entry pointers
	nBuckets int
}

// NewStore builds an empty keyspace with the given bucket count.
func NewStore(t *kernel.Task, arena *Arena, nBuckets int) (*Store, error) {
	b, err := arena.Alloc(t, uint64(nBuckets)*8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nBuckets; i++ {
		if err := t.Store(b+pgtable.VirtAddr(i*8), 8, 0); err != nil {
			return nil, err
		}
	}
	return &Store{arena: arena, buckets: b, nBuckets: nBuckets}, nil
}

// hashKey is the FNV-1a hash of a key (computed by the CPU: charged as
// compute work proportional to the key length).
func hashKey(t *kernel.Task, key []byte) uint64 {
	h := fnvFold(fnvBasis, key)
	t.Compute(int64(3 * len(key)))
	if h == 0 {
		h = 1
	}
	return h
}

func (s *Store) bucketAddr(h uint64) pgtable.VirtAddr {
	return s.buckets + pgtable.VirtAddr(int(h%uint64(s.nBuckets))*8)
}

// findEntry walks the hash chain for key, returning the entry address and
// the address of the pointer that references it (for unlinking).
func (s *Store) findEntry(t *kernel.Task, key []byte) (entry, ref pgtable.VirtAddr, err error) {
	h := hashKey(t, key)
	ref = s.bucketAddr(h)
	cur, err := t.Load(ref, 8)
	if err != nil {
		return 0, 0, err
	}
	for cur != 0 {
		e := pgtable.VirtAddr(cur)
		eh, err := t.Load(e, 8)
		if err != nil {
			return 0, 0, err
		}
		if eh == h {
			klen, err := t.Load(e+32, 8)
			if err != nil {
				return 0, 0, err
			}
			if int(klen) == len(key) {
				var scratch [64]byte // the compare allocates only for longer keys
				kb, err := t.ReadAppend(scratch[:0], e+entryHdr, len(key))
				if err != nil {
					return 0, 0, err
				}
				if string(kb) == string(key) {
					return e, ref, nil
				}
			}
		}
		ref = e + 8
		cur, err = t.Load(ref, 8)
		if err != nil {
			return 0, 0, err
		}
	}
	return 0, ref, nil
}

// ensureEntry returns key's entry, creating a typed one if absent.
func (s *Store) ensureEntry(t *kernel.Task, key []byte, typ uint64) (pgtable.VirtAddr, error) {
	e, _, err := s.findEntry(t, key)
	if err != nil {
		return 0, err
	}
	if e != 0 {
		return e, nil
	}
	h := hashKey(t, key)
	e, err = s.arena.Alloc(t, entryHdr+uint64(len(key)))
	if err != nil {
		return 0, err
	}
	if err := t.Store(e, 8, h); err != nil {
		return 0, err
	}
	// Push at chain head.
	ba := s.bucketAddr(h)
	head, err := t.Load(ba, 8)
	if err != nil {
		return 0, err
	}
	if err := t.Store(e+8, 8, head); err != nil {
		return 0, err
	}
	if err := t.Store(e+16, 8, typ); err != nil {
		return 0, err
	}
	if err := t.Store(e+24, 8, 0); err != nil {
		return 0, err
	}
	if err := t.Store(e+32, 8, uint64(len(key))); err != nil {
		return 0, err
	}
	if err := t.WriteBytes(e+entryHdr, key); err != nil {
		return 0, err
	}
	if err := t.Store(ba, 8, uint64(e)); err != nil {
		return 0, err
	}
	return e, nil
}

// Set stores a string value under key.
func (s *Store) Set(t *kernel.Task, key, val []byte) error {
	if len(val) > maxStoreVal {
		return &StoreError{Kind: ErrValueTooLarge, Op: "set", Size: uint64(len(val)), Limit: maxStoreVal}
	}
	e, err := s.ensureEntry(t, key, typeString)
	if err != nil {
		return err
	}
	blk, err := s.arena.Alloc(t, 8+uint64(len(val)))
	if err != nil {
		return err
	}
	if err := t.Store(blk, 8, uint64(len(val))); err != nil {
		return err
	}
	if err := t.WriteBytes(blk+8, val); err != nil {
		return err
	}
	if err := t.Store(e+16, 8, typeString); err != nil {
		return err
	}
	return t.Store(e+24, 8, uint64(blk))
}

// Get returns key's string value, or nil if absent.
func (s *Store) Get(t *kernel.Task, key []byte) ([]byte, error) {
	v, ok, err := s.getAppend(t, []byte{}, key)
	if !ok {
		return nil, err
	}
	return v, nil
}

// getAppend appends key's string value to dst; ok is false, and dst
// returned unchanged, if key is absent.
func (s *Store) getAppend(t *kernel.Task, dst, key []byte) (_ []byte, ok bool, err error) {
	e, _, err := s.findEntry(t, key)
	if err != nil || e == 0 {
		return dst, false, err
	}
	vp, err := t.Load(e+24, 8)
	if err != nil || vp == 0 {
		return dst, false, err
	}
	n, err := t.Load(pgtable.VirtAddr(vp), 8)
	if err != nil {
		return dst, false, err
	}
	dst, err = t.ReadAppend(dst, pgtable.VirtAddr(vp)+8, int(n))
	return dst, err == nil, err
}

// listHeader returns (creating on demand) key's list header address.
func (s *Store) listHeader(t *kernel.Task, key []byte) (pgtable.VirtAddr, error) {
	e, err := s.ensureEntry(t, key, typeList)
	if err != nil {
		return 0, err
	}
	vp, err := t.Load(e+24, 8)
	if err != nil {
		return 0, err
	}
	if vp != 0 {
		return pgtable.VirtAddr(vp), nil
	}
	hd, err := s.arena.Alloc(t, 24)
	if err != nil {
		return 0, err
	}
	for off := 0; off < 24; off += 8 {
		if err := t.Store(hd+pgtable.VirtAddr(off), 8, 0); err != nil {
			return 0, err
		}
	}
	return hd, t.Store(e+24, 8, uint64(hd))
}

// Push appends val at the left or right end of key's list.
func (s *Store) Push(t *kernel.Task, key, val []byte, left bool) error {
	if len(val) > maxStoreVal {
		return &StoreError{Kind: ErrValueTooLarge, Op: "push", Size: uint64(len(val)), Limit: maxStoreVal}
	}
	hd, err := s.listHeader(t, key)
	if err != nil {
		return err
	}
	node, err := s.arena.Alloc(t, 24+uint64(len(val)))
	if err != nil {
		return err
	}
	if err := t.Store(node+16, 8, uint64(len(val))); err != nil {
		return err
	}
	if err := t.WriteBytes(node+24, val); err != nil {
		return err
	}
	head, err := t.Load(hd, 8)
	if err != nil {
		return err
	}
	tail, err := t.Load(hd+8, 8)
	if err != nil {
		return err
	}
	if left {
		if err := t.Store(node, 8, 0); err != nil { // prev
			return err
		}
		if err := t.Store(node+8, 8, head); err != nil { // next
			return err
		}
		if head != 0 {
			if err := t.Store(pgtable.VirtAddr(head), 8, uint64(node)); err != nil {
				return err
			}
		}
		if err := t.Store(hd, 8, uint64(node)); err != nil {
			return err
		}
		if tail == 0 {
			if err := t.Store(hd+8, 8, uint64(node)); err != nil {
				return err
			}
		}
	} else {
		if err := t.Store(node, 8, tail); err != nil {
			return err
		}
		if err := t.Store(node+8, 8, 0); err != nil {
			return err
		}
		if tail != 0 {
			if err := t.Store(pgtable.VirtAddr(tail)+8, 8, uint64(node)); err != nil {
				return err
			}
		}
		if err := t.Store(hd+8, 8, uint64(node)); err != nil {
			return err
		}
		if head == 0 {
			if err := t.Store(hd, 8, uint64(node)); err != nil {
				return err
			}
		}
	}
	n, err := t.Load(hd+16, 8)
	if err != nil {
		return err
	}
	return t.Store(hd+16, 8, n+1)
}

// Pop removes and returns the element at the left or right end of key's
// list (nil when empty).
func (s *Store) Pop(t *kernel.Task, key []byte, left bool) ([]byte, error) {
	e, _, err := s.findEntry(t, key)
	if err != nil || e == 0 {
		return nil, err
	}
	vp, err := t.Load(e+24, 8)
	if err != nil || vp == 0 {
		return nil, err
	}
	hd := pgtable.VirtAddr(vp)
	var nodeP uint64
	if left {
		nodeP, err = t.Load(hd, 8)
	} else {
		nodeP, err = t.Load(hd+8, 8)
	}
	if err != nil || nodeP == 0 {
		return nil, err
	}
	node := pgtable.VirtAddr(nodeP)
	prev, err := t.Load(node, 8)
	if err != nil {
		return nil, err
	}
	next, err := t.Load(node+8, 8)
	if err != nil {
		return nil, err
	}
	if left {
		if err := t.Store(hd, 8, next); err != nil {
			return nil, err
		}
		if next != 0 {
			if err := t.Store(pgtable.VirtAddr(next), 8, 0); err != nil {
				return nil, err
			}
		} else if err := t.Store(hd+8, 8, 0); err != nil {
			return nil, err
		}
	} else {
		if err := t.Store(hd+8, 8, prev); err != nil {
			return nil, err
		}
		if prev != 0 {
			if err := t.Store(pgtable.VirtAddr(prev)+8, 8, 0); err != nil {
				return nil, err
			}
		} else if err := t.Store(hd, 8, 0); err != nil {
			return nil, err
		}
	}
	n, err := t.Load(hd+16, 8)
	if err != nil {
		return nil, err
	}
	if err := t.Store(hd+16, 8, n-1); err != nil {
		return nil, err
	}
	ln, err := t.Load(node+16, 8)
	if err != nil {
		return nil, err
	}
	return t.ReadBytes(node+24, int(ln))
}

// LLen returns the length of key's list.
func (s *Store) LLen(t *kernel.Task, key []byte) (uint64, error) {
	e, _, err := s.findEntry(t, key)
	if err != nil || e == 0 {
		return 0, err
	}
	vp, err := t.Load(e+24, 8)
	if err != nil || vp == 0 {
		return 0, err
	}
	return t.Load(pgtable.VirtAddr(vp)+16, 8)
}

// SAdd inserts member into key's set, returning 1 if newly added.
func (s *Store) SAdd(t *kernel.Task, key, member []byte) (int, error) {
	if len(member) > maxStoreVal {
		return 0, &StoreError{Kind: ErrValueTooLarge, Op: "sadd", Size: uint64(len(member)), Limit: maxStoreVal}
	}
	e, err := s.ensureEntry(t, key, typeSet)
	if err != nil {
		return 0, err
	}
	vp, err := t.Load(e+24, 8)
	if err != nil {
		return 0, err
	}
	const setBuckets = 16
	if vp == 0 {
		hd, err := s.arena.Alloc(t, setBuckets*8)
		if err != nil {
			return 0, err
		}
		for i := 0; i < setBuckets; i++ {
			if err := t.Store(hd+pgtable.VirtAddr(i*8), 8, 0); err != nil {
				return 0, err
			}
		}
		if err := t.Store(e+24, 8, uint64(hd)); err != nil {
			return 0, err
		}
		vp = uint64(hd)
	}
	h := hashKey(t, member)
	ba := pgtable.VirtAddr(vp) + pgtable.VirtAddr(int(h%setBuckets)*8)
	cur, err := t.Load(ba, 8)
	if err != nil {
		return 0, err
	}
	for p := cur; p != 0; {
		m := pgtable.VirtAddr(p)
		mh, err := t.Load(m, 8)
		if err != nil {
			return 0, err
		}
		if mh == h {
			mlen, err := t.Load(m+16, 8)
			if err != nil {
				return 0, err
			}
			if int(mlen) == len(member) {
				mb, err := t.ReadBytes(m+24, len(member))
				if err != nil {
					return 0, err
				}
				if string(mb) == string(member) {
					return 0, nil // already present
				}
			}
		}
		p, err = t.Load(m+8, 8)
		if err != nil {
			return 0, err
		}
	}
	m, err := s.arena.Alloc(t, 24+uint64(len(member)))
	if err != nil {
		return 0, err
	}
	if err := t.Store(m, 8, h); err != nil {
		return 0, err
	}
	if err := t.Store(m+8, 8, cur); err != nil {
		return 0, err
	}
	if err := t.Store(m+16, 8, uint64(len(member))); err != nil {
		return 0, err
	}
	if err := t.WriteBytes(m+24, member); err != nil {
		return 0, err
	}
	if err := t.Store(ba, 8, uint64(m)); err != nil {
		return 0, err
	}
	return 1, nil
}

// fnvFold continues an FNV-1a hash over b.
func fnvFold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// fnvFoldU64 folds an 8-byte little-endian framing word into the hash, so
// length fields can't alias adjacent byte content.
func fnvFoldU64(h, v uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return fnvFold(h, buf[:])
}

const fnvBasis uint64 = 14695981039346656037

// Digest folds every entry's canonical hash into an order-independent sum,
// so two stores holding the same logical keyspace digest identically no
// matter how entries landed in buckets or where the arena placed them.
// Each entry hashes klen|key|type|content; list content preserves node
// order (lists are ordered), set content is an inner order-independent sum
// of member hashes (sets are not). The walk reads through the simulated
// cache like any other traversal.
func (s *Store) Digest(t *kernel.Task) (uint64, error) {
	var sum uint64
	for i := 0; i < s.nBuckets; i++ {
		cur, err := t.Load(s.buckets+pgtable.VirtAddr(i*8), 8)
		if err != nil {
			return 0, err
		}
		for cur != 0 {
			e := pgtable.VirtAddr(cur)
			klen, err := t.Load(e+32, 8)
			if err != nil {
				return 0, err
			}
			key, err := t.ReadBytes(e+entryHdr, int(klen))
			if err != nil {
				return 0, err
			}
			typ, err := t.Load(e+16, 8)
			if err != nil {
				return 0, err
			}
			vp, err := t.Load(e+24, 8)
			if err != nil {
				return 0, err
			}
			h := fnvFoldU64(fnvBasis, klen)
			h = fnvFold(h, key)
			h = fnvFoldU64(h, typ)
			h, err = s.digestValue(t, h, typ, vp)
			if err != nil {
				return 0, err
			}
			sum += h
			cur, err = t.Load(e+8, 8)
			if err != nil {
				return 0, err
			}
		}
	}
	return sum, nil
}

// digestValue hashes one entry's content per its type.
func (s *Store) digestValue(t *kernel.Task, h, typ, vp uint64) (uint64, error) {
	if vp == 0 {
		return fnvFoldU64(h, 0), nil
	}
	switch typ {
	case typeString:
		n, err := t.Load(pgtable.VirtAddr(vp), 8)
		if err != nil {
			return 0, err
		}
		val, err := t.ReadBytes(pgtable.VirtAddr(vp)+8, int(n))
		if err != nil {
			return 0, err
		}
		return fnvFold(fnvFoldU64(h, n), val), nil
	case typeList:
		cur, err := t.Load(pgtable.VirtAddr(vp), 8) // head
		if err != nil {
			return 0, err
		}
		for cur != 0 {
			node := pgtable.VirtAddr(cur)
			ln, err := t.Load(node+16, 8)
			if err != nil {
				return 0, err
			}
			payload, err := t.ReadBytes(node+24, int(ln))
			if err != nil {
				return 0, err
			}
			h = fnvFold(fnvFoldU64(h, ln), payload)
			cur, err = t.Load(node+8, 8) // next
			if err != nil {
				return 0, err
			}
		}
		return h, nil
	case typeSet:
		const setBuckets = 16
		var inner uint64
		for i := 0; i < setBuckets; i++ {
			cur, err := t.Load(pgtable.VirtAddr(vp)+pgtable.VirtAddr(i*8), 8)
			if err != nil {
				return 0, err
			}
			for cur != 0 {
				m := pgtable.VirtAddr(cur)
				mlen, err := t.Load(m+16, 8)
				if err != nil {
					return 0, err
				}
				mb, err := t.ReadBytes(m+24, int(mlen))
				if err != nil {
					return 0, err
				}
				inner += fnvFold(fnvFoldU64(fnvBasis, mlen), mb)
				cur, err = t.Load(m+8, 8)
				if err != nil {
					return 0, err
				}
			}
		}
		return fnvFoldU64(h, inner), nil
	}
	return fnvFoldU64(h, typ), nil
}
