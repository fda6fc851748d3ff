package parallel

// Event kinds order simultaneous events: an eviction kills the process
// before any same-instant completion is credited (the engine's
// failure-dominates rule), and a transfer completion beats a work-interval
// completion so the link frees up before a new transfer claims it.
// Predictor alarms fire last at an instant: a coincident failure means
// the warning came too late (the alarm is settled as fired-but-unacted
// when the failure is processed), and a coincident completion settles
// the books before the alarm interrupts anything. Remaining ties break
// by worker index, matching the old engine's worker-order batch firing.
const (
	kindFail uint8 = iota
	kindXfer
	kindWork
	kindPred
)

// eventLess is the total order on events: time, then kind, then worker
// index. The sharded engine and the linear-scan reference
// implementation select events with exactly this comparison, so the
// two stay bit-for-bit interchangeable.
func eventLess(t1 float64, k1 uint8, id1 int, t2 float64, k2 uint8, id2 int) bool {
	if t1 != t2 {
		return t1 < t2
	}
	if k1 != k2 {
		return k1 < k2
	}
	return id1 < id2
}

// heapNode is one calendar entry, packed so a sift touches a single
// 16-byte record per level instead of three parallel slices: four
// sibling nodes share one cache line, which is what makes the 4-ary
// layout pay — the widest node fan-in whose sibling scan still costs
// one line fill.
type heapNode struct {
	key  float64
	id   int32
	kind uint8
	_    [3]byte
}

// nodeLess applies eventLess to two packed nodes.
func nodeLess(a, b heapNode) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

// eventHeap is an indexed 4-ary min-heap over worker ids, ordered by
// (key, kind, id) via eventLess. The index (pos) gives O(log n)
// decrease-key, increase-key and remove by worker id — the operations
// a discrete-event calendar needs when a failure reschedules a
// worker's pending event or cancels its in-flight transfer.
//
// The sharded engine runs one instance per shard, keyed by wall-clock
// time (per worker, the earliest of its failure, work-interval
// completion and pending predictor alarm), plus one tournament
// instance over the shards themselves, keyed by each shard's root.
// Ids are shard-local in the former and shard indices in the latter;
// because shards cover contiguous ascending worker ranges, both id
// spaces break ties in global worker order.
type eventHeap struct {
	nodes []heapNode
	pos   []int32 // id -> slot, -1 if absent
}

// init readies a zero eventHeap for ids in [0, n).
func (h *eventHeap) init(n int) {
	h.nodes = make([]heapNode, 0, n)
	h.pos = make([]int32, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func newEventHeap(n int) *eventHeap {
	h := &eventHeap{}
	h.init(n)
	return h
}

func (h *eventHeap) Len() int { return len(h.nodes) }

func (h *eventHeap) Contains(id int) bool { return h.pos[id] >= 0 }

// Min returns the earliest event without removing it.
func (h *eventHeap) Min() (id int, key float64, kind uint8, ok bool) {
	if len(h.nodes) == 0 {
		return 0, 0, 0, false
	}
	n := h.nodes[0]
	return int(n.id), n.key, n.kind, true
}

// Update inserts id with the given key, or repositions it if already
// present (covers both decrease-key and increase-key).
func (h *eventHeap) Update(id int, key float64, kind uint8) {
	if i := h.pos[id]; i >= 0 {
		h.nodes[i].key = key
		h.nodes[i].kind = kind
		if !h.up(int(i)) {
			h.down(int(i))
		}
		return
	}
	h.nodes = append(h.nodes, heapNode{key: key, id: int32(id), kind: kind})
	i := len(h.nodes) - 1
	h.pos[id] = int32(i)
	h.up(i)
}

// Remove deletes id from the heap; absent ids are a no-op.
func (h *eventHeap) Remove(id int) {
	i := int(h.pos[id])
	if i < 0 {
		return
	}
	last := len(h.nodes) - 1
	if i != last {
		h.nodes[i] = h.nodes[last]
		h.pos[h.nodes[i].id] = int32(i)
	}
	h.nodes = h.nodes[:last]
	h.pos[id] = -1
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// up sifts slot i toward the root with a hole (the displaced node is
// written once at its final slot), reporting whether it moved.
func (h *eventHeap) up(i int) bool {
	n := h.nodes[i]
	moved := false
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(n, h.nodes[p]) {
			break
		}
		h.nodes[i] = h.nodes[p]
		h.pos[h.nodes[i].id] = int32(i)
		i = p
		moved = true
	}
	if moved {
		h.nodes[i] = n
		h.pos[n.id] = int32(i)
	}
	return moved
}

// down sifts slot i toward the leaves, scanning the (at most) four
// children — one cache line of siblings — per level.
func (h *eventHeap) down(i int) {
	n := h.nodes[i]
	size := len(h.nodes)
	moved := false
	for {
		c := i<<2 + 1
		if c >= size {
			break
		}
		end := c + 4
		if end > size {
			end = size
		}
		best := c
		for j := c + 1; j < end; j++ {
			if nodeLess(h.nodes[j], h.nodes[best]) {
				best = j
			}
		}
		if !nodeLess(h.nodes[best], n) {
			break
		}
		h.nodes[i] = h.nodes[best]
		h.pos[h.nodes[i].id] = int32(i)
		i = best
		moved = true
	}
	if moved {
		h.nodes[i] = n
		h.pos[n.id] = int32(i)
	}
}
