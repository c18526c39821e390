package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// FlatFS is the one-file-per-name backend (the "flatfs" backend, after the
// flat-filesystem datastores used by content-addressed stores). Volatile
// contents always live in memory — the page cache. The durable half is
// either an in-memory shadow (no directory: simulated, like Disk) or a real
// file under dir written with os.File + fsync on every Sync.
//
// With a directory, a new FlatFS loads every regular file found there as
// durable (and volatile) content, which is what makes cross-process
// recovery real: a bmxd run pointed at the same -store-dir resumes from
// whatever the previous run forced to disk.
type FlatFS struct {
	mu    sync.Mutex
	dir   string // "" = simulated durability
	files map[string]*file
	// stats
	bytesWritten int64
	bytesSynced  int64
	syncs        int64
}

var _ Store = (*FlatFS)(nil)

// NewFlatFS returns a flatfs store. With dir == "" durability is simulated
// in memory; otherwise dir is created if needed and existing files in it
// are loaded as the durable state. Errors touching the real filesystem are
// reported on first use via panic — the store layer has no error channel,
// matching the simulated backends, and a broken store directory is fatal
// to a node anyway.
func NewFlatFS(dir string) *FlatFS {
	s := &FlatFS{dir: dir, files: make(map[string]*file)}
	if dir == "" {
		return s
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(fmt.Sprintf("store: flatfs %s: %v", dir, err))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		panic(fmt.Sprintf("store: flatfs %s: %v", dir, err))
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			panic(fmt.Sprintf("store: flatfs %s: %v", dir, err))
		}
		s.files[e.Name()] = &file{
			durable:  data,
			volatile: append([]byte(nil), data...),
		}
	}
	return s
}

func (s *FlatFS) get(name string) *file {
	f, ok := s.files[name]
	if !ok {
		f = &file{}
		s.files[name] = f
	}
	return f
}

func (s *FlatFS) path(name string) string { return filepath.Join(s.dir, name) }

// Write replaces the volatile contents of name.
func (s *FlatFS) Write(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.get(name)
	f.volatile = append([]byte(nil), data...)
	s.bytesWritten += int64(len(data))
}

// Append extends the volatile contents of name.
func (s *FlatFS) Append(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.get(name)
	f.volatile = append(f.volatile, data...)
	s.bytesWritten += int64(len(data))
}

// Sync forces the volatile contents of name to the durable half — with a
// directory, an os.File write followed by fsync.
func (s *FlatFS) Sync(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.get(name)
	// Reuse the durable buffer: it never escapes (ReadDurable and Crash
	// copy it), so a sync costs no fresh allocation of the whole file.
	f.durable = append(f.durable[:0], f.volatile...)
	s.bytesSynced += int64(len(f.durable))
	s.syncs++
	if s.dir == "" {
		return
	}
	fh, err := os.OpenFile(s.path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		panic(fmt.Sprintf("store: flatfs sync %s: %v", name, err))
	}
	if _, err := fh.Write(f.durable); err == nil {
		err = fh.Sync()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		panic(fmt.Sprintf("store: flatfs sync %s: %v", name, err))
	}
}

// Read returns the volatile contents of name. The returned slice is a copy.
func (s *FlatFS) Read(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.volatile...), true
}

// ReadDurable returns the durable contents of name.
func (s *FlatFS) ReadDurable(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.durable...), true
}

// Remove deletes a file, including its on-disk backing if any.
func (s *FlatFS) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	if s.dir != "" {
		os.Remove(s.path(name))
	}
}

// Rename atomically moves oldName to newName (os.Rename when backed by a
// real directory), replacing any existing file.
func (s *FlatFS) Rename(oldName, newName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[oldName]
	if !ok {
		return
	}
	delete(s.files, oldName)
	s.files[newName] = f
	if s.dir != "" {
		// Only the durable half exists on disk; a never-synced source has
		// no file to move, and the destination must not keep stale bytes.
		if _, err := os.Stat(s.path(oldName)); err == nil {
			os.Rename(s.path(oldName), s.path(newName))
		} else {
			os.Remove(s.path(newName))
		}
	}
}

// Crash discards every file's volatile contents. With a directory, the
// surviving state is re-read from disk, so what recovery sees is literally
// what fsync left there.
func (s *FlatFS) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		s.files = make(map[string]*file)
		ents, err := os.ReadDir(s.dir)
		if err != nil {
			panic(fmt.Sprintf("store: flatfs %s: %v", s.dir, err))
		}
		for _, e := range ents {
			if !e.Type().IsRegular() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
			if err != nil {
				panic(fmt.Sprintf("store: flatfs %s: %v", s.dir, err))
			}
			s.files[e.Name()] = &file{
				durable:  data,
				volatile: append([]byte(nil), data...),
			}
		}
		return
	}
	for name, f := range s.files {
		if len(f.durable) == 0 {
			delete(s.files, name)
			continue
		}
		f.volatile = append([]byte(nil), f.durable...)
	}
}

// Files lists the existing file names, sorted.
func (s *FlatFS) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.files))
	for n := range s.files {
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
	mode := "sim"
	if s.dir != "" {
		mode = s.dir
	}
	return fmt.Sprintf("flatfs{%s, files: %d, written: %dB, synced: %dB}",
		mode, len(s.files), s.bytesWritten, s.bytesSynced)
}
