package cluster

import (
	"fmt"

	"bmx/internal/addr"
	"bmx/internal/dsm"
)

// Tx is a transactional section over the weakly consistent DSM — the §10
// future-work direction ("we are also extending the current GC design to
// incorporate a weakly consistent distributed shared memory system with full
// support for transactions"), built with the pieces the paper already has:
// entry-consistency write tokens give isolation (a token acquired at first
// touch is held until the section ends), buffered writes give atomicity
// (nothing reaches the shared heap before Commit), and the RVM log gives
// durability when the node has a disk (Commit forces one log transaction).
//
// The collector needs no changes: buffered writes live outside the shared
// heap; objects a transaction touches are pinned through a transaction-held
// root so an intervening collection cannot reclaim them; and on Commit the
// writes pass the ordinary write barrier, creating SSPs exactly as direct
// writes would.
type Tx struct {
	n    *Node
	done bool
	// writes are buffered in program order; Commit replays them.
	writes []txWrite
	// pinned tracks objects rooted for the transaction's duration.
	pinned []Ref
	seen   map[addr.OID]bool
}

type txWrite struct {
	obj   Ref
	field int
	word  uint64
	ref   Ref
	isRef bool
}

// Begin opens a transactional section at this node.
func (n *Node) Begin() *Tx {
	return &Tx{n: n, seen: make(map[addr.OID]bool)}
}

// pin roots an object for the transaction's lifetime and acquires the
// requested token, so a concurrent collection cannot reclaim it and
// isolation holds until the section ends.
func (tx *Tx) pin(r Ref, mode dsm.Mode) error {
	if tx.done {
		return fmt.Errorf("cluster: operation on a finished transaction")
	}
	if err := tx.n.acquireToken(r, mode); err != nil {
		return err
	}
	tx.n.mu.Lock()
	defer tx.n.mu.Unlock()
	if !tx.seen[r.OID] {
		tx.n.dsm.AddRoot(r.OID)
		tx.seen[r.OID] = true
		tx.pinned = append(tx.pinned, r)
	}
	return nil
}

// WriteRef buffers a reference store.
func (tx *Tx) WriteRef(obj Ref, field int, target Ref) error {
	if err := tx.pin(obj, dsm.ModeWrite); err != nil {
		return err
	}
	if !target.IsNil() {
		if err := tx.pin(target, dsm.ModeRead); err != nil {
			return err
		}
	}
	tx.writes = append(tx.writes, txWrite{obj: obj, field: field, ref: target, isRef: true})
	return nil
}

// WriteWord buffers a scalar store.
func (tx *Tx) WriteWord(obj Ref, field int, v uint64) error {
	if err := tx.pin(obj, dsm.ModeWrite); err != nil {
		return err
	}
	tx.writes = append(tx.writes, txWrite{obj: obj, field: field, word: v})
	return nil
}

// ReadWord reads a scalar with read-your-writes semantics.
func (tx *Tx) ReadWord(obj Ref, field int) (uint64, error) {
	if err := tx.pin(obj, dsm.ModeRead); err != nil {
		return 0, err
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		w := tx.writes[i]
		if w.obj.OID == obj.OID && w.field == field && !w.isRef {
			return w.word, nil
		}
	}
	return tx.n.ReadWord(obj, field)
}

// ReadRef reads a reference with read-your-writes semantics.
func (tx *Tx) ReadRef(obj Ref, field int) (Ref, error) {
	if err := tx.pin(obj, dsm.ModeRead); err != nil {
		return Nil, err
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		w := tx.writes[i]
		if w.obj.OID == obj.OID && w.field == field && w.isRef {
			return w.ref, nil
		}
	}
	return tx.n.ReadRef(obj, field)
}

// Commit applies the buffered writes to the shared heap (each passing the
// write barrier), forces them to the recoverable log when the node has a
// disk, releases the tokens and unpins the roots.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("cluster: commit on a finished transaction")
	}
	for _, w := range tx.writes {
		// Entry consistency may have pulled the token since first touch
		// (a remote read downgrades or a remote write revokes); commit
		// re-acquires, which is exactly a mutator re-entering its
		// critical section.
		if err := tx.n.AcquireWrite(w.obj); err != nil {
			return fmt.Errorf("cluster: commit: %w", err)
		}
		var err error
		if w.isRef {
			err = tx.n.WriteRef(w.obj, w.field, w.ref)
		} else {
			err = tx.n.WriteWord(w.obj, w.field, w.word)
		}
		if err != nil {
			// Half-applied commits must not linger silently; the caller
			// sees the error and the section stays open for Abort.
			return fmt.Errorf("cluster: commit: %w", err)
		}
	}
	if tx.n.disk != nil {
		tx.n.Sync()
	}
	tx.finish()
	return nil
}

// Abort discards the buffered writes; the shared heap never sees them.
func (tx *Tx) Abort() {
	if !tx.done {
		tx.finish()
	}
}

func (tx *Tx) finish() {
	tx.done = true
	tx.writes = nil
	for _, r := range tx.pinned {
		tx.n.RemoveRoot(r)
		tx.n.Release(r)
	}
	tx.pinned = nil
}

// Pinned reports how many objects the transaction currently roots.
func (tx *Tx) Pinned() int { return len(tx.pinned) }
