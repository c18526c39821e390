package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// FlatFS is the one-file-per-name backend (the "flatfs" backend, after the
// flat-filesystem datastores used by content-addressed stores), always over
// a real directory.
//
// The durable half of a file is the file on disk, and memory holds only
// what was written since that file's last Sync: the appended tail, or the
// whole new contents after a Write. Sync of an appended file writes the
// tail at the durable offset and fsyncs, so a sync costs the tail, not the
// file; a replaced file is truncated and rewritten. A new FlatFS takes every
// regular file found in the directory as durable content, which is what
// makes cross-process recovery real: a bmxd run pointed at the same
// -store-dir resumes from whatever the previous run forced to disk.
type FlatFS struct {
	mu   sync.Mutex
	dir  string
	disk map[string]*diskFile
	// stats
	bytesWritten int64
	bytesSynced  int64
	syncs        int64
}

// diskFile is one file. Its durable contents are the size bytes of the
// file on disk (present once onDisk); its volatile contents are those
// followed by pending, or pending alone when replaced — a Write since the
// last Sync superseded what is on disk.
type diskFile struct {
	size     int64
	onDisk   bool
	replaced bool
	pending  []byte
}

var _ Store = (*FlatFS)(nil)

// NewFlatFS returns a flatfs store over dir, created if needed; existing
// files in it are the durable state. An empty dir and errors touching the
// real filesystem panic — the store layer has no error channel, matching
// the in-memory backends, and a broken store directory is fatal to a node
// anyway.
func NewFlatFS(dir string) *FlatFS {
	if dir == "" {
		panic("store: flatfs needs a directory")
	}
	s := &FlatFS{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(fmt.Sprintf("store: flatfs %s: %v", dir, err))
	}
	s.load()
	return s
}

// load rebuilds the namespace from the directory: one file per regular
// file there, durable up to its size, nothing pending.
func (s *FlatFS) load() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		panic(fmt.Sprintf("store: flatfs %s: %v", s.dir, err))
	}
	s.disk = make(map[string]*diskFile, len(ents))
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			panic(fmt.Sprintf("store: flatfs %s: %v", s.dir, err))
		}
		s.disk[e.Name()] = &diskFile{size: info.Size(), onDisk: true}
	}
}

func (s *FlatFS) getDisk(name string) *diskFile {
	f, ok := s.disk[name]
	if !ok {
		f = &diskFile{}
		s.disk[name] = f
	}
	return f
}

func (s *FlatFS) path(name string) string { return filepath.Join(s.dir, name) }

// Write replaces the volatile contents of name.
func (s *FlatFS) Write(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesWritten += int64(len(data))
	f := s.getDisk(name)
	f.pending = append([]byte(nil), data...)
	f.replaced = true
}

// Append extends the volatile contents of name.
func (s *FlatFS) Append(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesWritten += int64(len(data))
	f := s.getDisk(name)
	f.pending = append(f.pending, data...)
}

// Sync forces the volatile contents of name to disk: a write of what is
// pending followed by fsync.
func (s *FlatFS) Sync(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	s.bytesSynced += s.syncDisk(s.getDisk(name), name)
}

// syncDisk writes f's pending bytes to name's file and fsyncs it: at the
// durable offset for an appended file, over a truncated one for a replaced
// or never-synced file. It returns the number of bytes it wrote.
func (s *FlatFS) syncDisk(f *diskFile, name string) int64 {
	flags, off := os.O_WRONLY|os.O_CREATE, f.size
	if f.replaced || !f.onDisk {
		flags, off = flags|os.O_TRUNC, 0
	}
	fh, err := os.OpenFile(s.path(name), flags, 0o644)
	if err != nil {
		panic(fmt.Sprintf("store: flatfs sync %s: %v", name, err))
	}
	if _, err = fh.WriteAt(f.pending, off); err == nil {
		err = fh.Sync()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		panic(fmt.Sprintf("store: flatfs sync %s: %v", name, err))
	}
	wrote := int64(len(f.pending))
	f.size = off + wrote
	f.onDisk, f.replaced, f.pending = true, false, nil
	return wrote
}

// durable reads f's durable contents from disk.
func (s *FlatFS) durable(f *diskFile, name string) []byte {
	if !f.onDisk {
		return nil
	}
	data, err := os.ReadFile(s.path(name))
	if err != nil {
		panic(fmt.Sprintf("store: flatfs read %s: %v", name, err))
	}
	return data
}

// Read returns the volatile contents of name. The returned slice is a copy.
func (s *FlatFS) Read(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.disk[name]
	if !ok {
		return nil, false
	}
	if f.replaced {
		return append([]byte(nil), f.pending...), true
	}
	return append(s.durable(f, name), f.pending...), true
}

// ReadDurable returns the durable contents of name.
func (s *FlatFS) ReadDurable(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.disk[name]
	if !ok {
		return nil, false
	}
	return s.durable(f, name), true
}

// Remove deletes a file, including its on-disk backing if any.
func (s *FlatFS) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.disk, name)
	s.removeFile(name)
}

func (s *FlatFS) removeFile(name string) {
	if err := os.Remove(s.path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		panic(fmt.Sprintf("store: flatfs remove %s: %v", name, err))
	}
}

// Rename atomically moves oldName to newName with os.Rename, replacing any
// existing file.
func (s *FlatFS) Rename(oldName, newName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.disk[oldName]
	if !ok {
		return
	}
	delete(s.disk, oldName)
	s.disk[newName] = f
	// Only the durable half exists on disk; a never-synced source has no
	// file to move, and the destination must not keep stale bytes.
	if !f.onDisk {
		s.removeFile(newName)
	} else if err := os.Rename(s.path(oldName), s.path(newName)); err != nil {
		panic(fmt.Sprintf("store: flatfs rename %s: %v", oldName, err))
	}
}

// Crash discards every file's volatile contents by re-reading the
// namespace from disk, so what recovery sees is literally what fsync left
// there.
func (s *FlatFS) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.load()
}

// Files lists the existing file names, sorted.
func (s *FlatFS) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.disk))
	for n := range s.disk {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Stats returns cumulative (written, synced, syncCount) byte/IO counters.
func (s *FlatFS) Stats() (written, synced, syncs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten, s.bytesSynced, s.syncs
}

// String summarizes the store for debugging.
func (s *FlatFS) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("flatfs{%s, files: %d, written: %dB, synced: %dB}",
		s.dir, len(s.disk), s.bytesWritten, s.bytesSynced)
}
