package store

import "testing"

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
