// Package bmx is a faithful reproduction of the BMX platform from
// "Garbage Collection and DSM Consistency" (Paulo Ferreira and Marc Shapiro,
// OSDI '94): persistent, weakly consistent distributed shared memory over a
// 64-bit single address space, with a copying garbage collector that never
// interferes with the consistency protocol.
//
// A Cluster simulates a loosely coupled network of nodes. Objects are
// allocated within bunches (groups of fixed-size segments) and shared
// through per-object entry-consistency tokens. Each node runs a bunch
// garbage collector (BGC) that collects its local replica of a bunch
// independently of all other bunches and replicas, a scion cleaner that
// retires dead inter-node references, and a group collector (GGC) that
// reclaims inter-bunch cycles at a single site.
//
// Quick start:
//
//	cl := bmx.New(bmx.Config{Nodes: 2})
//	n1, n2 := cl.Node(0), cl.Node(1)
//	b := n1.NewBunch()
//	obj := n1.MustAlloc(b, 2)        // 2-word object, owned at n1
//	n1.AddRoot(obj)                  // a mutator stack reference
//	n1.WriteWord(obj, 0, 42)         // n1 holds the write token
//
//	n2.AcquireRead(obj)              // entry consistency: token first
//	v, _ := n2.ReadWord(obj, 0)      // v == 42
//
//	n1.CollectBunch(b)               // BGC: moves obj, acquires no token
//	cl.Run(0)                        // deliver background GC tables
//
// The collector's defining properties are measurable through cl.Stats():
// it acquires zero tokens ("dsm.acquire.*.gc" stays zero), sends its
// information as piggyback on consistency messages ("bytes.piggyback"),
// and tolerates loss of its background table messages (Config.Faults).
package bmx

import (
	"bmx/internal/addr"
	"bmx/internal/cluster"
	"bmx/internal/core"
	"bmx/internal/dsm"
	"bmx/internal/transport"
)

// Config parametrizes a simulated cluster. The zero value means one node,
// 256-word segments, no message loss and the default GC cost model.
type Config = cluster.Config

// Cluster is a simulated BMX deployment: N nodes over a deterministic
// network.
type Cluster = cluster.Cluster

// Node is one site: a heap of mapped segment replicas, an entry-consistency
// engine, a collector, and optionally a disk.
type Node = cluster.Node

// Ref is a mutator-visible object handle with the pointer-comparison
// semantics of the paper's special macro: it names the object stably across
// copying collections.
type Ref = cluster.Ref

// Nil is the null reference.
var Nil = cluster.Nil

// PeerConfig assembles one process of a multi-process cluster over real TCP
// sockets: a single node, identity derived from the sorted address set, the
// rank-0 process serving the authoritative directory.
type PeerConfig = cluster.PeerConfig

// Peer is one process's share of a multi-process cluster.
type Peer = cluster.Peer

// NewPeer builds this process's node and starts listening.
func NewPeer(cfg PeerConfig) (*Peer, error) { return cluster.NewPeer(cfg) }

// Identifier types of the single shared address space.
type (
	// OID is a stable, cluster-unique object identity.
	OID = addr.OID
	// NodeID identifies a node (site).
	NodeID = addr.NodeID
	// BunchID identifies a bunch, the unit of independent collection.
	BunchID = addr.BunchID
	// SegID identifies a fixed-size segment.
	SegID = addr.SegID
	// Addr is a byte address in the 64-bit single address space.
	Addr = addr.Addr
)

// Mode is a node's token state for an object: i (invalid), r (read) or w
// (write), as lettered in the paper's figures.
type Mode = dsm.Mode

// Token modes.
const (
	ModeInvalid = dsm.ModeInvalid
	ModeRead    = dsm.ModeRead
	ModeWrite   = dsm.ModeWrite
)

// CollectStats summarizes one collection: liveness counts, objects copied
// versus merely scanned, and the two flip pauses of the O'Toole-style
// collector.
type CollectStats = core.CollectStats

// CollectOpts tunes a collection (concurrent-mutator callback).
type CollectOpts = core.CollectOpts

// ReclaimStats summarizes a from-space reuse round (§4.5 of the paper).
type ReclaimStats = core.ReclaimStats

// Tx is a transactional section over the weakly consistent DSM (the §10
// future-work extension): buffered writes, read-your-writes, token-based
// isolation, RVM durability on nodes with disks. Open one with Node.Begin.
type Tx = cluster.Tx

// Protocol selects the DSM consistency variant (Config.Consistency); the
// collector is identical under every variant.
type Protocol = dsm.Protocol

// Consistency protocol variants.
const (
	// ProtocolEntry is the paper's entry consistency.
	ProtocolEntry = dsm.ProtocolEntry
	// ProtocolStrict revalidates reads every critical section.
	ProtocolStrict = dsm.ProtocolStrict
)

// Stats is the cluster-wide counter registry.
type Stats = transport.Stats

// Class partitions network traffic into application (consistency) and GC
// messages for accounting and fault injection.
type Class = transport.Class

// Traffic classes.
const (
	ClassApp = transport.ClassApp
	ClassGC  = transport.ClassGC
)

// FaultPlan declares the faults the simulated network injects: per-class and
// per-kind drop/duplication/delay rates plus node-pair partitions. Install
// one with Config.Faults or Cluster.SetFaultPlan. The §6.1 robustness claim
// is that GC traffic stays correct under all of them.
type FaultPlan = transport.FaultPlan

// FaultRates is one drop/duplicate/delay probability triple of a FaultPlan.
type FaultRates = transport.FaultRates

// NodePair names an unordered pair of nodes in a FaultPlan partition list.
type NodePair = transport.NodePair

// ErrPartitioned distinguishes a synchronous call that failed because the
// two endpoints are partitioned; callers match it with errors.Is.
var ErrPartitioned = transport.ErrPartitioned

// ChaosConfig parametrizes a seeded chaos soak: a mixed mutator+GC storm
// under a randomized fault schedule, followed by heal, drain and a full
// invariant audit.
type ChaosConfig = cluster.ChaosConfig

// ChaosReport is the outcome of a chaos soak; Violations is empty iff the
// cluster converged after heal and drain.
type ChaosReport = cluster.ChaosReport

// CrashChaosConfig parametrizes a crash-recovery chaos run: a persistent
// cluster whose nodes are killed mid-collection on a seeded schedule —
// alternating between the two sides of the flip's log force — then
// restarted from their stores and audited for persistence-by-reachability.
type CrashChaosConfig = cluster.CrashChaosConfig

// CrashChaosReport is the outcome of a crash-recovery chaos run; Violations
// is empty iff every kill/restart preserved the durable state machine.
type CrashChaosReport = cluster.CrashChaosReport

// New builds a cluster.
func New(cfg Config) *Cluster { return cluster.New(cfg) }

// RunChaos runs the seeded chaos soak.
func RunChaos(cfg ChaosConfig) ChaosReport { return cluster.RunChaos(cfg) }

// RunCrashChaos runs the seeded crash-recovery chaos schedule.
func RunCrashChaos(cfg CrashChaosConfig) CrashChaosReport { return cluster.RunCrashChaos(cfg) }
