package harness

// Shadow is the harness's own model of every object slot: who holds its
// write token or last did (the owner), which nodes have taken a read token
// since the last write, and the value the stream last wrote. It decides
// whether an acquire has to leave the node without asking the node, and it
// is what every ReadWord is checked against: one client issuing one op at a
// time under entry consistency makes both exact.
type Shadow struct {
	owner   []int8
	readers []uint16 // bit n set: node n holds a read token
	val     []uint64
}

// NewShadow models nodes×perNode slots, each owned by its home node (the
// allocator holds the write token) with value 0.
func NewShadow(nodes, perNode int) *Shadow {
	s := &Shadow{
		owner:   make([]int8, nodes*perNode),
		readers: make([]uint16, nodes*perNode),
		val:     make([]uint64, nodes*perNode),
	}
	for i := range s.owner {
		s.owner[i] = int8(i / perNode)
	}
	return s
}

// Acquire applies one acquire by node to slot and reports whether it is
// remote, that is, whether the protocol has to send a message for it. A read
// is local when the node owns the object or already holds a read token. A
// write is local only when the node owns the object and no other node holds
// a read token: an owner whose copy-set is not empty has to invalidate it.
func (s *Shadow) Acquire(node, slot int, write bool) (remote bool) {
	bit := uint16(1) << node
	mine := int(s.owner[slot]) == node
	if !write {
		if mine || s.readers[slot]&bit != 0 {
			return false
		}
		s.readers[slot] |= bit
		return true
	}
	remote = !mine || s.readers[slot]&^bit != 0
	s.owner[slot] = int8(node)
	s.readers[slot] = 0
	return remote
}

// Reset returns slot to a freshly allocated object at node.
func (s *Shadow) Reset(node, slot int) {
	s.owner[slot] = int8(node)
	s.readers[slot] = 0
	s.val[slot] = 0
}
