package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// fileOnDisk returns the bytes of name in dir as the file system has them.
func fileOnDisk(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("read %s on disk: %v", name, err)
	}
	return data
}

// TestFlatFSDirSyncKeepsNoDurableCopy checks that a directory-backed file
// holds in memory only what is not yet synced.
func TestFlatFSDirSyncKeepsNoDurableCopy(t *testing.T) {
	s := NewFlatFS(t.TempDir())
	s.Append("log", []byte("abcd"))
	if got := len(s.disk["log"].pending); got != 4 {
		t.Fatalf("pending before sync = %d bytes, want 4", got)
	}
	s.Sync("log")
	if f := s.disk["log"]; len(f.pending) != 0 || cap(f.pending) != 0 {
		t.Fatalf("after sync memory still holds %d bytes (cap %d)", len(f.pending), cap(f.pending))
	}
	s.Append("log", []byte("ef"))
	if got := len(s.disk["log"].pending); got != 2 {
		t.Fatalf("pending after a 2-byte append = %d bytes, want 2", got)
	}
	if got, _ := s.Read("log"); string(got) != "abcdef" {
		t.Fatalf("Read = %q, want abcdef", got)
	}
	if got, _ := s.ReadDurable("log"); string(got) != "abcd" {
		t.Fatalf("ReadDurable = %q, want abcd", got)
	}
}

// TestFlatFSDirAppendSyncWritesTail checks that syncing an appended file
// writes the tail at the durable offset and never rewrites what is already
// on disk: bytes changed on disk behind the store's back survive the sync.
func TestFlatFSDirAppendSyncWritesTail(t *testing.T) {
	dir := t.TempDir()
	s := NewFlatFS(dir)
	s.Append("log", []byte("abcd"))
	s.Sync("log")
	if got := fileOnDisk(t, dir, "log"); string(got) != "abcd" {
		t.Fatalf("on disk after first sync = %q", got)
	}
	fh, err := os.OpenFile(filepath.Join(dir, "log"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt([]byte("AB"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	s.Append("log", []byte("ef"))
	s.Sync("log")
	if got := fileOnDisk(t, dir, "log"); string(got) != "ABcdef" {
		t.Fatalf("on disk after tail sync = %q, want ABcdef (prefix untouched, tail of 2 appended)", got)
	}
	if _, synced, syncs := s.Stats(); synced != 4+2 || syncs != 2 {
		t.Fatalf("Stats synced=%d syncs=%d, want 6 and 2 (each sync counts the bytes it wrote)", synced, syncs)
	}
}

// TestFlatFSDirWriteReplacesAcrossCrash checks that a Write after appends
// makes the next Sync truncate and rewrite the file.
func TestFlatFSDirWriteReplacesAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	s := NewFlatFS(dir)
	s.Append("f", []byte("abc"))
	s.Sync("f")
	s.Append("f", []byte("def"))
	s.Write("f", []byte("xy"))
	if got, _ := s.Read("f"); string(got) != "xy" {
		t.Fatalf("Read after Write = %q, want xy", got)
	}
	if got, _ := s.ReadDurable("f"); string(got) != "abc" {
		t.Fatalf("ReadDurable before sync = %q, want abc", got)
	}
	s.Sync("f")
	s.Crash()
	if got, _ := s.Read("f"); string(got) != "xy" {
		t.Fatalf("after sync+crash = %q, want xy", got)
	}
	if got := fileOnDisk(t, dir, "f"); string(got) != "xy" {
		t.Fatalf("on disk = %q, want xy", got)
	}
}

// TestFlatFSDirFreshOpenSeesSyncedPrefix checks cross-process recovery of
// an appended file: a new FlatFS over the directory sees exactly what the
// last sync covered, never the unsynced tail.
func TestFlatFSDirFreshOpenSeesSyncedPrefix(t *testing.T) {
	dir := t.TempDir()
	s := NewFlatFS(dir)
	s.Append("log", []byte("ab"))
	s.Sync("log")
	s.Append("log", []byte("cd"))
	s.Sync("log")
	s.Append("log", []byte("ef"))

	s2 := NewFlatFS(dir)
	if got, ok := s2.Read("log"); !ok || string(got) != "abcd" {
		t.Fatalf("fresh open Read = %q, %v; want abcd", got, ok)
	}
	s2.Append("log", []byte("gh"))
	s2.Sync("log")
	if got := fileOnDisk(t, dir, "log"); string(got) != "abcdgh" {
		t.Fatalf("on disk after appending from the fresh open = %q, want abcdgh", got)
	}
}

// TestFlatFSDirRenameUnsyncedSource checks that renaming a never-synced
// file over a synced one leaves no stale destination bytes on disk.
func TestFlatFSDirRenameUnsyncedSource(t *testing.T) {
	dir := t.TempDir()
	s := NewFlatFS(dir)
	s.Write("dst", []byte("stale"))
	s.Sync("dst")
	s.Write("src", []byte("new"))
	s.Rename("src", "dst")
	if got, _ := s.Read("dst"); string(got) != "new" {
		t.Fatalf("Read dst = %q, want new", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "dst")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale destination file left on disk: stat err = %v", err)
	}
	s.Crash()
	if _, ok := s.Read("dst"); ok {
		t.Fatal("never-synced contents survived the crash under the new name")
	}
}

// TestFlatFSNeedsDirectory: flatfs has no in-memory mode; Disk is the
// in-memory store.
func TestFlatFSNeedsDirectory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlatFS(\"\") did not panic")
		}
	}()
	NewFlatFS("")
}
