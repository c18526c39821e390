// Package store provides the secondary storage of a BMX node: a flat
// namespace of named files with explicit sync semantics and a crash
// operation, behind a pluggable Store interface.
//
// The paper's prototype supports persistence "by associating each segment
// with a Unix file" and recovery through RVM's disk-based log (§8). Every
// backend distinguishes volatile content (written but not yet forced to
// disk — the OS page cache) from durable content; Crash discards the
// volatile part, which is exactly the failure model RVM is built against.
//
// Three backends implement the interface:
//
//   - Disk (mem): files in memory. Each holds its durable bytes and the
//     tail written since its last Sync; a Sync appends the tail (or
//     replaces the bytes after a Write) and counts only the tail. The
//     default for the chaos harness.
//   - FlatFS: the same file shape with the durable half in real files,
//     one per name in a directory: a Sync writes the tail and fsyncs, and
//     construction recovers from the directory. Disk and FlatFS give a
//     node the same observable behaviour and the same counters.
//   - LSM: log-structured — every operation is a record appended to one
//     shared log; Sync advances a durable watermark over the whole log
//     (group durability) and, past a threshold, compaction rewrites the
//     durable index as a fresh snapshot log.
//
// Measure wraps any backend and feeds bytes/syncs/latency into the obs
// counter/histogram pipeline.
package store

import (
	"fmt"
	"slices"
	"sync"
)

// Store is the persistent-storage abstraction a node runs against.
// Implementations must be safe for concurrent use.
//
// Semantics every backend guarantees:
//
//   - Write replaces, Append extends, the volatile contents of name.
//     Neither retains data after it returns: the caller may reuse or
//     modify the slice at once.
//   - Sync(name) makes name's volatile contents durable before returning.
//     A backend MAY make other files durable too (a shared-log backend
//     syncs the whole log batch); callers may only rely on name.
//   - Read sees volatile contents; ReadDurable sees what a post-crash
//     recovery would see.
//   - Rename atomically moves a file (volatile and durable halves) to a
//     new name, replacing any existing file — the journaled-FS rename
//     used for crash-atomic checkpoint swaps.
//   - Remove and Rename are durable by the next Sync of any file at the
//     latest: Disk and FlatFS apply them at once, LSM logs them and makes
//     them durable with its next watermark. A caller that needs one to
//     survive a crash syncs afterwards, as rvm's writeAtomic does with its
//     trailing Sync.
//   - Crash discards all volatile state; only durable data survives. A
//     file a Sync covered survives, even when it was synced empty; a file no
//     Sync covered does not.
type Store interface {
	Write(name string, data []byte)
	Append(name string, data []byte)
	Sync(name string)
	Read(name string) ([]byte, bool)
	ReadDurable(name string) ([]byte, bool)
	Remove(name string)
	Rename(oldName, newName string)
	Crash()
	Files() []string
	Stats() (written, synced, syncs int64)
	String() string
}

// Disk is the map-backed simulated disk (the "mem" backend). Its files
// have the shape of a directory-mode flatfs file, with the durable half in
// memory instead of on disk, so a Sync costs what was written since the
// last one, not the whole file. All methods are safe for concurrent use.
type Disk struct {
	mu    sync.Mutex
	files map[string]*file
	// stats
	bytesWritten int64
	bytesSynced  int64
	syncs        int64
}

// file is one Disk file. Its durable contents are durable (present once
// synced); its volatile contents are those followed by pending, or pending
// alone when replaced — a Write since the last Sync superseded them.
type file struct {
	durable  []byte
	pending  []byte
	replaced bool
	synced   bool
}

var _ Store = (*Disk)(nil)

// NewDisk returns an empty disk.
func NewDisk() *Disk {
	return &Disk{files: make(map[string]*file)}
}

func (d *Disk) get(name string) *file {
	f, ok := d.files[name]
	if !ok {
		f = &file{}
		d.files[name] = f
	}
	return f
}

// Write replaces the volatile contents of name. The data does not survive a
// crash until Sync is called.
func (d *Disk) Write(name string, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.get(name)
	f.pending = append(f.pending[:0], data...)
	f.replaced = true
	d.bytesWritten += int64(len(data))
}

// Append extends the volatile contents of name.
func (d *Disk) Append(name string, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.get(name)
	f.pending = append(f.pending, data...)
	d.bytesWritten += int64(len(data))
}

// Sync makes the volatile contents of name durable: it appends the pending
// tail to the durable bytes, or replaces them with it, and counts the tail.
func (d *Disk) Sync(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.get(name)
	if f.replaced {
		f.durable = f.durable[:0]
	}
	// Neither buffer escapes (readers get copies), so both are reused.
	f.durable = append(f.durable, f.pending...)
	d.bytesSynced += int64(len(f.pending))
	d.syncs++
	f.pending, f.replaced, f.synced = f.pending[:0], false, true
}

// Read returns the current (volatile) contents of name and whether the file
// exists. The returned slice is a copy.
func (d *Disk) Read(name string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, false
	}
	if f.replaced {
		return append([]byte(nil), f.pending...), true
	}
	out := make([]byte, 0, len(f.durable)+len(f.pending))
	return append(append(out, f.durable...), f.pending...), true
}

// ReadDurable returns the durable contents of name — what a recovery after a
// crash would see.
func (d *Disk) ReadDurable(name string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.durable...), true
}

// Remove deletes a file (both volatile and durable contents).
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, name)
}

// Rename atomically moves oldName to newName, replacing any existing file.
// Like a journaled-FS rename it is durable immediately: both halves move.
func (d *Disk) Rename(oldName, newName string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldName]
	if !ok {
		return
	}
	delete(d.files, oldName)
	d.files[newName] = f
}

// Crash discards every file's pending tail, simulating a system failure:
// only synced data survives. Files never synced disappear; a file synced
// empty survives empty.
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, f := range d.files {
		if !f.synced {
			delete(d.files, name)
			continue
		}
		f.pending, f.replaced = nil, false
	}
}

// Files lists the existing file names, sorted.
func (d *Disk) Files() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.files))
	for n := range d.files {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Stats returns cumulative (written, synced, syncCount) byte/IO counters.
func (d *Disk) Stats() (written, synced, syncs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytesWritten, d.bytesSynced, d.syncs
}

// String summarizes the disk for debugging.
func (d *Disk) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("disk{files: %d, written: %dB, synced: %dB}",
		len(d.files), d.bytesWritten, d.bytesSynced)
}
