package proto

import "nicwarp/internal/dense"

// packetSlab is how many packets one pool miss allocates.
const packetSlab = 32

// Pool recycles the packets that die in the stack: event and anti-message
// packets, explicit credit messages and batch frames. A cluster keeps one
// per shard, shared by the host glue, the NIC and the MPICH endpoint of
// every node on that shard's engine; a packet is taken from the pool of
// the engine that builds it and released into the pool of the engine that
// consumes it. Within a shard that is the same list, so the pool holds
// about as many packets as were ever in flight at once, whatever the
// traffic pattern between its nodes. Only its own engine's goroutine
// touches a pool, and no packet's contents depend on which list it came
// from. The zero Pool is empty and ready to use.
type Pool struct {
	packets []*Packet //nicwarp:owns packet free list; the release destination itself
	frames  []*Packet //nicwarp:owns batch-frame free list; each frame keeps its Subs capacity
}

// Packet takes a packet from the pool, refilling it a slab at a time. Its
// contents are unspecified: the caller overwrites every field.
//
//nicwarp:hotpath packet allocation, once per event, anti-message or credit message sent
func (p *Pool) Packet() *Packet {
	return dense.Take(&p.packets, packetSlab)
}

// Release returns a packet to the pool. The caller guarantees no layer
// still references it; it may be handed out again at the next Packet.
//
//nicwarp:owns the free list is the release destination
func (p *Pool) Release(pkt *Packet) {
	p.packets = append(p.packets, pkt) //nicwarp:alloc free-list growth, amortized across the run
}

// Frame takes an empty batch frame: every field zero and Subs empty, with
// whatever capacity the frame kept from its last use, or room for subs
// sub-messages when the pool has to make one.
//
//nicwarp:hotpath frame allocation, once per assembled frame
func (p *Pool) Frame(subs int) *Packet {
	if k := len(p.frames); k > 0 {
		f := p.frames[k-1]
		p.frames[k-1] = nil
		p.frames = p.frames[:k-1]
		return f
	}
	f := &Packet{}                   //nicwarp:alloc pool miss; amortized to zero by reuse
	f.Subs = make([]SubMsg, 0, subs) //nicwarp:alloc pool miss; amortized to zero by reuse
	return f
}

// Clone returns a copy of pkt from the pool: a batch frame's from its
// frames, with the sub-messages copied into the frame's own. A nil pool
// clones on the heap (Packet.Clone).
//
//nicwarp:hotpath one per broadcast replica and fault-plane duplicate
func (p *Pool) Clone(pkt *Packet) *Packet {
	if p == nil {
		return pkt.Clone()
	}
	if pkt.Kind != KindBatch {
		c := p.Packet()
		*c = *pkt
		return c
	}
	c := p.Frame(len(pkt.Subs))
	subs := append(c.Subs, pkt.Subs...) //nicwarp:alloc a reused frame's sub-message capacity grows to the largest frame, amortized
	*c = *pkt
	c.Subs = subs
	return c
}

// ReleaseFrame returns a consumed batch frame to the pool, zeroing
// everything but its Subs capacity.
//
//nicwarp:hotpath frame release, once per delivered batch frame
func (p *Pool) ReleaseFrame(f *Packet) {
	subs := f.Subs[:0]
	clear(f.Subs[:cap(f.Subs)])
	*f = Packet{}
	f.Subs = subs
	p.frames = append(p.frames, f) //nicwarp:alloc free-list growth, amortized across the run
}
