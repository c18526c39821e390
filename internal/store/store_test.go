package store

import (
	"bytes"
	"sync"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := NewDisk()
	d.Write("a", []byte("hello"))
	got, ok := d.Read("a")
	if !ok || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Read = %q, %v", got, ok)
	}
}

func TestReadMissing(t *testing.T) {
	d := NewDisk()
	if _, ok := d.Read("nope"); ok {
		t.Fatal("missing file should not exist")
	}
	if _, ok := d.ReadDurable("nope"); ok {
		t.Fatal("missing durable file should not exist")
	}
}

func TestCrashDiscardsUnsynced(t *testing.T) {
	d := NewDisk()
	d.Write("a", []byte("v1"))
	d.Sync("a")
	d.Write("a", []byte("v2"))
	d.Crash()
	got, ok := d.Read("a")
	if !ok || string(got) != "v1" {
		t.Fatalf("after crash Read = %q, %v; want v1", got, ok)
	}
}

func TestCrashRemovesNeverSyncedFile(t *testing.T) {
	d := NewDisk()
	d.Write("tmp", []byte("x"))
	d.Crash()
	if _, ok := d.Read("tmp"); ok {
		t.Fatal("never-synced file survived crash")
	}
}

func TestAppend(t *testing.T) {
	d := NewDisk()
	d.Append("log", []byte("ab"))
	d.Append("log", []byte("cd"))
	got, _ := d.Read("log")
	if string(got) != "abcd" {
		t.Fatalf("append = %q", got)
	}
	d.Sync("log")
	d.Append("log", []byte("ef"))
	d.Crash()
	got, _ = d.Read("log")
	if string(got) != "abcd" {
		t.Fatalf("after crash = %q, want abcd", got)
	}
}

func TestReadDurableVsVolatile(t *testing.T) {
	d := NewDisk()
	d.Write("f", []byte("old"))
	d.Sync("f")
	d.Write("f", []byte("new"))
	if got, _ := d.Read("f"); string(got) != "new" {
		t.Fatalf("volatile read = %q", got)
	}
	if got, _ := d.ReadDurable("f"); string(got) != "old" {
		t.Fatalf("durable read = %q", got)
	}
}

func TestRemove(t *testing.T) {
	d := NewDisk()
	d.Write("f", []byte("x"))
	d.Sync("f")
	d.Remove("f")
	if _, ok := d.Read("f"); ok {
		t.Fatal("file survived remove")
	}
}

func TestFilesSorted(t *testing.T) {
	d := NewDisk()
	d.Write("b", nil)
	d.Write("a", nil)
	fs := d.Files()
	if len(fs) != 2 || fs[0] != "a" || fs[1] != "b" {
		t.Fatalf("Files = %v", fs)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := NewDisk()
	d.Write("f", []byte("abc"))
	got, _ := d.Read("f")
	got[0] = 'X'
	again, _ := d.Read("f")
	if string(again) != "abc" {
		t.Fatal("Read exposed internal buffer")
	}
}

func TestStats(t *testing.T) {
	d := NewDisk()
	d.Write("f", make([]byte, 10))
	d.Sync("f")
	w, s, n := d.Stats()
	if w != 10 || s != 10 || n != 1 {
		t.Fatalf("stats = %d %d %d", w, s, n)
	}
	if d.String() == "" {
		t.Fatal("String empty")
	}
}

// TestSyncCountsTail: a sync counts the tail written since the previous
// one, or the whole contents after a Write — what a flatfs sync writes.
func TestSyncCountsTail(t *testing.T) {
	d := NewDisk()
	d.Append("log", []byte("abcd"))
	d.Sync("log")
	d.Append("log", []byte("ef"))
	d.Sync("log")
	if _, synced, _ := d.Stats(); synced != 4+2 {
		t.Fatalf("synced = %d after a 4-byte and a 2-byte tail, want 6", synced)
	}
	d.Write("log", []byte("xyz"))
	d.Sync("log")
	if _, synced, _ := d.Stats(); synced != 6+3 {
		t.Fatalf("synced = %d after replacing with 3 bytes, want 9", synced)
	}
	if got, _ := d.ReadDurable("log"); string(got) != "xyz" {
		t.Fatalf("ReadDurable = %q, want xyz", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := NewDisk()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				d.Append("log", []byte{byte(j)})
				d.Sync("log")
				d.Read("log")
			}
		}()
	}
	wg.Wait()
	got, _ := d.Read("log")
	if len(got) != 800 {
		t.Fatalf("log length = %d", len(got))
	}
}
