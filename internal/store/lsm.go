package store

import (
	"fmt"
	"slices"
	"sync"
)

// lsmOp is the kind of one log record.
type lsmOp uint8

const (
	lsmPut lsmOp = iota + 1 // replace contents
	lsmAdd                  // append contents
	lsmDel                  // remove file
	lsmMov                  // rename file (data holds the new name)
)

// lsmRec is one operation in the log-structured store's shared log.
type lsmRec struct {
	op   lsmOp
	name string
	data []byte
}

// lsmCompactThreshold is the record count past which a Sync triggers
// compaction: the durable index is snapshotted into a fresh base log
// (write-new, one sync, swap) and the old segments dropped.
const lsmCompactThreshold = 4096

// LSM is the log-structured backend: every mutation is a record appended
// to a single shared log of segments. Sync(name) advances a durable
// watermark over the whole log — group durability, one barrier makes every
// buffered record durable, which is exactly the access pattern of an RVM
// log that appends a transaction and forces it. Crash truncates the log at the
// watermark and rebuilds the namespace from the durable prefix. When the
// log grows past a threshold, Sync compacts: the durable index is written
// out as a fresh snapshot log and the history dropped.
type LSM struct {
	mu   sync.Mutex
	recs []lsmRec // the shared log (snapshot prefix + live tail)
	dur  int      // records [0:dur) are durable
	vol  map[string][]byte
	dix  map[string][]byte // durable index: replay of recs[0:dur)
	// stats
	bytesWritten int64
	bytesSynced  int64
	syncs        int64
	compactions  int64
}

var _ Store = (*LSM)(nil)

// NewLSM returns an empty log-structured store.
func NewLSM() *LSM {
	return &LSM{vol: make(map[string][]byte), dix: make(map[string][]byte)}
}

// apply replays one record onto an index.
func apply(ix map[string][]byte, r lsmRec) {
	switch r.op {
	case lsmPut:
		ix[r.name] = append([]byte(nil), r.data...)
	case lsmAdd:
		if old, ok := ix[r.name]; ok {
			ix[r.name] = append(append([]byte(nil), old...), r.data...)
		} else {
			ix[r.name] = append([]byte(nil), r.data...)
		}
	case lsmDel:
		delete(ix, r.name)
	case lsmMov:
		if v, ok := ix[r.name]; ok {
			delete(ix, r.name)
			ix[string(r.data)] = v
		}
	}
}

// recSize approximates the encoded size of a record for the byte counters:
// one op byte, the name, and the payload.
func recSize(r lsmRec) int64 { return int64(1 + len(r.name) + len(r.data)) }

func (s *LSM) log(r lsmRec) {
	s.recs = append(s.recs, r)
	apply(s.vol, r)
	s.bytesWritten += recSize(r)
}

// Write replaces the volatile contents of name.
func (s *LSM) Write(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log(lsmRec{op: lsmPut, name: name, data: append([]byte(nil), data...)})
}

// Append extends the volatile contents of name.
func (s *LSM) Append(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log(lsmRec{op: lsmAdd, name: name, data: append([]byte(nil), data...)})
}

// Sync makes name durable by forcing the whole log tail: the durable
// watermark advances over every buffered record (shared-log group
// durability — other files may ride along, per the Store contract).
func (s *LSM) Sync(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs[s.dur:] {
		apply(s.dix, r)
		s.bytesSynced += recSize(r)
	}
	s.dur = len(s.recs)
	s.syncs++
	if len(s.recs) > lsmCompactThreshold {
		s.compact()
	}
}

// compact folds the durable index into a fresh snapshot log: write-new,
// (implicitly) sync, swap. The volatile tail is empty here because compact
// only runs from Sync, after the watermark advanced over everything.
// Caller holds s.mu.
func (s *LSM) compact() {
	names := make([]string, 0, len(s.dix))
	for n := range s.dix {
		names = append(names, n)
	}
	slices.Sort(names)
	base := make([]lsmRec, 0, len(names))
	for _, n := range names {
		r := lsmRec{op: lsmPut, name: n, data: append([]byte(nil), s.dix[n]...)}
		base = append(base, r)
		s.bytesWritten += recSize(r)
		s.bytesSynced += recSize(r)
	}
	s.recs = base
	s.dur = len(base)
	s.syncs++ // the snapshot's own force before the swap
	s.compactions++
}

// Read returns the volatile contents of name. The returned slice is a copy.
func (s *LSM) Read(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vol[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// ReadDurable returns what a post-crash replay of the durable log prefix
// would reconstruct for name.
func (s *LSM) ReadDurable(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.dix[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Remove deletes a file.
func (s *LSM) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log(lsmRec{op: lsmDel, name: name})
}

// Rename moves oldName to newName, replacing any existing file.
func (s *LSM) Rename(oldName, newName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.vol[oldName]; !ok {
		return
	}
	s.log(lsmRec{op: lsmMov, name: oldName, data: []byte(newName)})
}

// Crash truncates the log at the durable watermark and rebuilds the
// volatile namespace from the durable prefix.
func (s *LSM) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = s.recs[:s.dur]
	s.vol = make(map[string][]byte, len(s.dix))
	for n, v := range s.dix {
		s.vol[n] = append([]byte(nil), v...)
	}
}

// Files lists the existing file names, sorted.
func (s *LSM) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.vol))
	for n := range s.vol {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Stats returns cumulative (written, synced, syncCount) byte/IO counters.
func (s *LSM) Stats() (written, synced, syncs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten, s.bytesSynced, s.syncs
}

// String summarizes the store for debugging.
func (s *LSM) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("lsm{files: %d, log: %d recs (%d durable), compactions: %d, written: %dB, synced: %dB}",
		len(s.vol), len(s.recs), s.dur, s.compactions, s.bytesWritten, s.bytesSynced)
}
