// Package rvm provides lightweight recoverable virtual memory in the style
// of Satyanarayanan et al., which the BMX prototype uses for recovery (§2.1,
// §8): simple redo-log transactions with no nesting, distribution or
// concurrency control. Modified address ranges of mapped segments are
// recorded in a transaction, one record per range; at commit the new values
// and a commit marker are forced to the log; recovery replays the records
// of committed transactions, in log order, over the segment files. The
// reference map is part of the recoverable state (§8), so a range record
// carries the reference-map bits of the words it logs.
//
// Following O'Toole et al. (§8), the collector's from-space and to-space are
// each backed by a (simulated) file, and changes to mapped segments reach
// disk atomically through this log.
//
// The log supports two commit disciplines. In the classic per-transaction
// mode every Commit forces the log (one sync per transaction). In group
// commit mode (SetGroupCommit) Commit only appends — records and commit
// markers accumulate in the page cache — and an explicit Barrier forces the
// whole batch with a single sync. The collector calls Barrier once from its
// locked flip bracket, so a collection costs one forced write no matter how
// many objects moved or died.
package rvm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"bmx/internal/addr"
	"bmx/internal/mem"
	"bmx/internal/store"
)

// Record is one logged range update: words written at a word offset within a
// segment, with their reference-map bits.
type Record struct {
	Tx  uint64
	Seg addr.SegID
	// Gen is the segment range's tenancy generation when the record was
	// written. Address recycling can hand the same segment ID to a new
	// tenant — even within the same bunch — and a record from the old
	// tenancy must not replay into the new one.
	Gen   uint32
	Off   int
	Words []uint64
	// Refs is the reference-map mask of Words: bit i%64 of Refs[i/64] is
	// the reference-map bit of word Off+i. It holds ⌈len(Words)/64⌉ words.
	Refs []uint64
	// Dead marks an object-reclaim record: OID was garbage and was
	// reclaimed by a collection flip. Recovery must not resurrect it.
	Dead bool
	OID  addr.OID
}

// IsRef reports the reference-map bit of word Off+i.
func (r Record) IsRef(i int) bool { return r.Refs[i/64]&(1<<(i%64)) != 0 }

// maskWords is the number of mask words a range of n words carries.
func maskWords(n int) int { return (n + 63) / 64 }

const (
	tagRange  byte = 'R'
	tagDead   byte = 'D'
	tagCommit byte = 'C'
)

// Log is a node's recoverable-memory redo log backed by one store file.
type Log struct {
	st   store.Store
	name string

	mu      sync.Mutex
	nextTx  uint64
	group   bool
	counter func(name string, d int64)
	// spare is the last sealed transaction's buffer, for the next Begin:
	// store backends do not retain what Append is given.
	spare []byte
	// dirty: a transaction was sealed since the last Barrier or Truncate.
	dirty atomic.Bool
}

// NewLog opens (or creates) the log named name on st.
func NewLog(st store.Store, name string) *Log {
	return &Log{st: st, name: name, nextTx: 1}
}

// SetGroupCommit selects the commit discipline: with on, Commit appends
// without forcing and durability waits for the next Barrier.
func (l *Log) SetGroupCommit(on bool) {
	l.mu.Lock()
	l.group = on
	l.mu.Unlock()
}

// GroupCommit reports the current commit discipline.
func (l *Log) GroupCommit() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.group
}

// SetCounter installs a sink for the log's flat counters (rvm.log.bytes,
// rvm.log.commits, rvm.log.barriers). A nil sink disables them.
func (l *Log) SetCounter(f func(name string, d int64)) {
	l.mu.Lock()
	l.counter = f
	l.mu.Unlock()
}

func (l *Log) count(name string, d int64) {
	l.mu.Lock()
	f := l.counter
	l.mu.Unlock()
	if f != nil {
		f(name, d)
	}
}

// Begin starts a transaction.
func (l *Log) Begin() *Tx {
	l.mu.Lock()
	id := l.nextTx
	l.nextTx++
	buf := l.spare
	l.spare = nil
	l.mu.Unlock()
	return &Tx{log: l, id: id, buf: buf}
}

// Barrier forces everything appended so far — the group-commit durability
// point. The collector calls this once per collection flip, from its locked
// flip bracket; after Barrier returns, every transaction committed before
// it survives any crash. A barrier with nothing sealed since the last
// barrier or Truncate syncs nothing and is not counted. In per-transaction
// mode each Commit forces on its own, so a barrier after commits is a
// harmless extra force.
func (l *Log) Barrier() {
	if !l.dirty.Swap(false) {
		return
	}
	l.st.Sync(l.name)
	l.count("rvm.log.barriers", 1)
}

// Truncate discards the log contents, typically after a checkpoint has made
// the logged state durable elsewhere.
func (l *Log) Truncate() {
	l.dirty.Store(false)
	l.st.Write(l.name, nil)
	l.st.Sync(l.name)
}

// Recover scans the durable log and returns the records of committed
// transactions in log order. A torn tail (partially written final record)
// terminates the scan, mirroring a real redo log.
func (l *Log) Recover() []Record {
	data, ok := l.st.ReadDurable(l.name)
	if !ok {
		return nil
	}
	var (
		records   []Record
		committed = make(map[uint64]bool)
	)
	// First pass: find commit markers.
	forEachRecord(data, func(tag byte, r Record) {
		if tag == tagCommit {
			committed[r.Tx] = true
		}
	})
	// Second pass: collect committed records in order.
	forEachRecord(data, func(tag byte, r Record) {
		if tag != tagCommit && committed[r.Tx] {
			records = append(records, r)
		}
	})
	return records
}

// forEachRecord decodes the log's records in order. Every record starts
// with a tag byte and the transaction ID; a torn or corrupt record (a word
// run or mask that runs past the data) ends the scan.
func forEachRecord(data []byte, f func(tag byte, r Record)) {
	le := binary.LittleEndian
	for len(data) >= 9 {
		tag, tx := data[0], le.Uint64(data[1:])
		data = data[9:]
		switch tag {
		case tagCommit:
			f(tagCommit, Record{Tx: tx})
		case tagDead:
			if len(data) < 8 {
				return // torn record: stop
			}
			f(tagDead, Record{Tx: tx, Dead: true, OID: addr.OID(le.Uint64(data))})
			data = data[8:]
		case tagRange:
			if len(data) < 16 {
				return
			}
			seg, gen, off, n := le.Uint32(data), le.Uint32(data[4:]), le.Uint32(data[8:]), le.Uint32(data[12:])
			data = data[16:]
			if uint64(n)+uint64(maskWords(int(n))) > uint64(len(data)/8) {
				return // torn or corrupt length: stop at the damage
			}
			words := make([]uint64, int(n)+maskWords(int(n)))
			for i := range words {
				words[i] = le.Uint64(data[8*i:])
			}
			data = data[8*len(words):]
			f(tag, Record{
				Tx: tx, Seg: addr.SegID(seg), Gen: gen, Off: int(off),
				Words: words[:n:n], Refs: words[n:],
			})
		default:
			return // corrupt log: stop at the damage
		}
	}
}

// Tx is a recoverable transaction. SetRange records new values; Commit
// forces them to the log. A transaction is aborted by dropping it: one never
// committed leaves nothing in the log, before a crash or after recovery.
type Tx struct {
	log  *Log
	id   uint64
	buf  []byte // encoded records, appended to the log at commit
	done bool
}

// SetRange records that words were written at word offset off of segment
// seg, whose range is currently on tenancy generation gen, and their
// reference-map mask refs (bit i%64 of refs[i/64] is word off+i's; nil reads
// as no references). The record is tag, tx, seg, gen, off, word count, the
// words, then ⌈len(words)/64⌉ mask words.
func (tx *Tx) SetRange(seg addr.SegID, gen uint32, off int, words, refs []uint64) {
	tx.begin(tagRange)
	le := binary.LittleEndian
	b := le.AppendUint32(tx.buf, uint32(seg))
	b = le.AppendUint32(b, gen)
	b = le.AppendUint32(b, uint32(off))
	b = le.AppendUint32(b, uint32(len(words)))
	for _, w := range words {
		b = le.AppendUint64(b, w)
	}
	for i := range maskWords(len(words)) {
		var m uint64
		if i < len(refs) {
			m = refs[i]
		}
		b = le.AppendUint64(b, m)
	}
	tx.buf = b
}

// SetDead records that oid was reclaimed as garbage by a collection flip.
// On recovery the object must stay dead: a logged death overrides any
// earlier checkpoint or header record for the same object.
func (tx *Tx) SetDead(oid addr.OID) {
	tx.begin(tagDead)
	tx.buf = binary.LittleEndian.AppendUint64(tx.buf, uint64(oid))
}

// begin starts a record of the given tag: the tag byte, then the
// transaction ID.
func (tx *Tx) begin(tag byte) {
	if tx.done {
		panic("rvm: record on a finished transaction")
	}
	tx.buf = binary.LittleEndian.AppendUint64(append(tx.buf, tag), tx.id)
}

// seal ends the transaction with its commit marker and appends it to the
// log, without forcing.
func (tx *Tx) seal(op string) {
	if tx.done {
		panic("rvm: " + op + " on a finished transaction")
	}
	tx.begin(tagCommit)
	tx.done = true
	l := tx.log
	l.st.Append(l.name, tx.buf)
	l.dirty.Store(true)
	l.count("rvm.log.bytes", int64(len(tx.buf)))
	l.mu.Lock()
	l.spare, tx.buf = tx.buf[:0], nil
	l.mu.Unlock()
}

// Commit appends the transaction's records and a commit marker to the log.
// In per-transaction mode the log is forced before returning, so the
// updates survive any crash; in group-commit mode durability waits for the
// next Barrier.
func (tx *Tx) Commit() {
	tx.seal("Commit")
	l := tx.log
	l.count("rvm.log.commits", 1)
	if !l.GroupCommit() {
		l.st.Sync(l.name)
	}
}

// ---- Segment images (words + object-map + reference-map) ------------------

// writeAtomic installs data at name crash-atomically: write-new, sync,
// swap, force. A crash at any point leaves either the old contents or the
// new — never a torn mix. (The trailing sync covers shared-log backends
// whose rename is itself a log record.)
func writeAtomic(st store.Store, name string, data []byte) {
	tmp := name + ".tmp"
	st.Write(tmp, data)
	st.Sync(tmp)
	st.Rename(tmp, name)
	st.Sync(name)
}

// ImageFile is the disk name backing the full image of segment id.
func ImageFile(id addr.SegID) string { return fmt.Sprintf("segimg-%d", uint32(id)) }

func putWords(buf []byte, words []uint64) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(words)))
	buf = append(buf, n[:]...)
	for _, w := range words {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		buf = append(buf, b[:]...)
	}
	return buf
}

func getWords(data []byte) ([]uint64, []byte, bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < 8*n {
		return nil, nil, false
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return words, data[8*n:], true
}

// WriteImage checkpoints a full segment image (words, object-map,
// reference-map, allocation offset) to its backing file. The install is
// crash-atomic: a recovery sees either the previous image or this one.
func WriteImage(st store.Store, img mem.SegImage) {
	buf := make([]byte, 0, 20+8*(len(img.Words)+len(img.ObjBits)+len(img.RefBits)))
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(img.ID))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(img.Bunch))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(img.AllocOff))
	binary.LittleEndian.PutUint32(hdr[12:], img.Gen)
	buf = append(buf, hdr[:]...)
	buf = putWords(buf, img.Words)
	buf = putWords(buf, img.ObjBits)
	buf = putWords(buf, img.RefBits)
	writeAtomic(st, ImageFile(img.ID), buf)
}

// ReadImage loads a full segment image from its backing file.
func ReadImage(st store.Store, id addr.SegID) (mem.SegImage, bool) {
	data, ok := st.Read(ImageFile(id))
	if !ok || len(data) < 16 {
		return mem.SegImage{}, false
	}
	img := mem.SegImage{
		ID:       addr.SegID(binary.LittleEndian.Uint32(data[:4])),
		Bunch:    addr.BunchID(binary.LittleEndian.Uint32(data[4:8])),
		AllocOff: int(binary.LittleEndian.Uint32(data[8:12])),
		Gen:      binary.LittleEndian.Uint32(data[12:16]),
	}
	rest := data[16:]
	if img.Words, rest, ok = getWords(rest); !ok {
		return mem.SegImage{}, false
	}
	if img.ObjBits, rest, ok = getWords(rest); !ok {
		return mem.SegImage{}, false
	}
	if img.RefBits, _, ok = getWords(rest); !ok {
		return mem.SegImage{}, false
	}
	return img, true
}

// ---- Checkpoint live-sets -------------------------------------------------

// LiveSetFile is the disk name of bunch b's checkpoint live-set.
func LiveSetFile(b addr.BunchID) string { return fmt.Sprintf("liveset-%d", uint32(b)) }

// WriteLiveSet checkpoints the identities of bunch b's live objects — the
// OIDs holding canonical addresses when the checkpoint was taken. Recovery
// needs it to tell survivors from corpses: a reclaimed object's header
// bytes linger in the image of its from-space segment until that segment is
// recycled, and once the checkpoint truncates the log the death record that
// would condemn them is gone. A header found in an image but absent from
// the live set (and from the replayed log suffix) is such a corpse, and
// resurrecting it would break persistence by reachability (§7). The install
// is crash-atomic, like the segment images it describes.
func WriteLiveSet(st store.Store, b addr.BunchID, oids []addr.OID) {
	buf := make([]byte, 0, 8+8*len(oids))
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(b))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(oids)))
	buf = append(buf, hdr[:]...)
	for _, o := range oids {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(o))
		buf = append(buf, w[:]...)
	}
	writeAtomic(st, LiveSetFile(b), buf)
}

// ReadLiveSet loads bunch b's checkpoint live-set. The boolean reports
// whether a live-set was ever checkpointed; absence means no checkpoint has
// covered the bunch, so every recovered object must come from the log.
func ReadLiveSet(st store.Store, b addr.BunchID) (map[addr.OID]bool, bool) {
	data, ok := st.Read(LiveSetFile(b))
	if !ok || len(data) < 8 || addr.BunchID(binary.LittleEndian.Uint32(data[:4])) != b {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	if len(data) < 8+8*n {
		return nil, false
	}
	set := make(map[addr.OID]bool, n)
	for i := 0; i < n; i++ {
		set[addr.OID(binary.LittleEndian.Uint64(data[8+8*i:]))] = true
	}
	return set, true
}
