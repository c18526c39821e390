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
//   - Disk (memstore): the original map-backed simulated disk. Fully
//     deterministic; the default for the chaos harness.
//   - FlatFS: one file per name. Given a directory the durable content
//     is the real file — a sync writes only what is pending and fsyncs,
//     and construction recovers from the directory; without one it
//     simulates.
//   - LSM: log-structured — every operation is a record appended to an
//     active segment; Sync advances a durable watermark over the shared
//     log (group durability) and compaction folds cold segments into a
//     snapshot.
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
//   - Crash discards all volatile state; only durable data survives.
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

// Disk is the map-backed simulated disk (the "mem" backend). All methods
// are safe for concurrent use.
type Disk struct {
	mu    sync.Mutex
	files map[string]*file
	// stats
	bytesWritten int64
	bytesSynced  int64
	syncs        int64
}

type file struct {
	durable  []byte
	volatile []byte
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
	f.volatile = append([]byte(nil), data...)
	d.bytesWritten += int64(len(data))
}

// Append extends the volatile contents of name.
func (d *Disk) Append(name string, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.get(name)
	f.volatile = append(f.volatile, data...)
	d.bytesWritten += int64(len(data))
}

// Sync makes the volatile contents of name durable.
func (d *Disk) Sync(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.get(name)
	f.durable = append([]byte(nil), f.volatile...)
	d.bytesSynced += int64(len(f.durable))
	d.syncs++
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
	return append([]byte(nil), f.volatile...), true
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

// Crash discards every file's volatile contents, simulating a system
// failure: only synced data survives. Files never synced disappear.
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, f := range d.files {
		if len(f.durable) == 0 {
			delete(d.files, name)
			continue
		}
		f.volatile = append([]byte(nil), f.durable...)
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
