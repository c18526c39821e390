package harness

import (
	"hash/fnv"
	"math/rand"
)

// StreamLen is the length of every pre-generated op stream. A time-boxed run
// that outlasts it wraps around: the stream stays a pure function of the
// seed, and at HEAD's speed no workload reaches the end in one run.
const StreamLen = 1 << 20

// ZipfS is the exponent ranking the objects a node reaches for outside its
// own home set.
const ZipfS = 1.2

// Op is one mutator operation: a slot (home node × PerNode + index within the
// home set) and whether it writes. The issuing node is not stored: op i is
// issued at node i mod Nodes, round-robin.
type Op uint32

// Slot is the object slot the op targets.
func (o Op) Slot() int { return int(o >> 1) }

// Write reports whether the op is acquire-write/write-word.
func (o Op) Write() bool { return o&1 == 1 }

// Stream is the generated input of one run: the program sees nothing of the
// generator but these calls.
type Stream struct {
	Nodes, PerNode int
	Ops            []Op
}

// Generate builds the op stream of workload w from seed. With probability
// w.Affinity the op issued at node n targets a uniformly chosen object of n's
// own home set; otherwise it targets the Zipf(1.2)-ranked object of the
// other nodes' home sets, rank r being index r/(Nodes-1) of the
// (r mod (Nodes-1))-th next node — so every node's hottest foreign objects
// are the low indices of its neighbours, and those are shared by all.
func Generate(seed int64, w Workload, n int) *Stream {
	rng := rand.New(rand.NewSource(seed))
	s := &Stream{Nodes: w.Nodes, PerNode: w.PerNode, Ops: make([]Op, n)}
	var zipf *rand.Zipf
	if w.Nodes > 1 {
		zipf = rand.NewZipf(rng, ZipfS, 1, uint64((w.Nodes-1)*w.PerNode-1))
	}
	for i := range s.Ops {
		node := i % w.Nodes
		var slot int
		if zipf == nil || rng.Float64() < w.Affinity {
			slot = node*w.PerNode + rng.Intn(w.PerNode)
		} else {
			r := int(zipf.Uint64())
			home := (node + 1 + r%(w.Nodes-1)) % w.Nodes
			slot = home*w.PerNode + r/(w.Nodes-1)
		}
		op := Op(slot << 1)
		if rng.Float64() < w.WriteShare {
			op |= 1
		}
		s.Ops[i] = op
	}
	return s
}

// Hash fingerprints the stream (FNV-1a over the ops), for the determinism
// test and the trace file header.
func (s *Stream) Hash() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, o := range s.Ops {
		b[0], b[1], b[2], b[3] = byte(o), byte(o>>8), byte(o>>16), byte(o>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// Shares measures the stream: the fraction of ops that target the issuing
// node's own home set, and the fraction that write.
func (s *Stream) Shares() (affinity, writes float64) {
	var home, wr int
	for i, o := range s.Ops {
		if o.Slot()/s.PerNode == i%s.Nodes {
			home++
		}
		if o.Write() {
			wr++
		}
	}
	n := float64(len(s.Ops))
	return float64(home) / n, float64(wr) / n
}
