package rvm

import (
	"bytes"
	"testing"

	"bmx/internal/mem"
	"bmx/internal/store"
)

func memSegImage() mem.SegImage {
	return mem.SegImage{
		ID: 5, AllocOff: 8,
		Words:   []uint64{1, 2, 3, 4},
		ObjBits: []uint64{0b1},
		RefBits: []uint64{0b10},
	}
}

// FuzzRecover feeds arbitrary bytes to the redo-log scanner: recovery of a
// corrupt or torn log must never panic and must never fabricate a record
// that was not committed.
func FuzzRecover(f *testing.F) {
	// Seed with a real committed transaction, a torn tail and junk.
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(3, 0, 10, []uint64{1, 2, 3}, []uint64{0b101})
	tx.SetRange(3, 0, 20, make([]uint64, 70), []uint64{1 << 63, 0b11})
	tx.Commit()
	good, _ := d.Read("log")
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{'R', 0, 1, 2})
	f.Add([]byte{'C'})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{'R'}, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		disk := store.NewDisk()
		disk.Write("log", data)
		disk.Sync("log")
		recs := NewLog(disk, "log").Recover()
		for _, r := range recs {
			if len(r.Words) > 1<<20 {
				t.Fatalf("implausible record of %d words from fuzz input", len(r.Words))
			}
			if !r.Dead && len(r.Refs) != (len(r.Words)+63)/64 {
				t.Fatalf("record of %d words has %d mask words", len(r.Words), len(r.Refs))
			}
		}
	})
}

// FuzzReadImage feeds arbitrary bytes to the segment-image decoder.
func FuzzReadImage(f *testing.F) {
	d := store.NewDisk()
	WriteImage(d, memSegImage())
	good, _ := d.Read(ImageFile(5))
	f.Add(good)
	f.Add(good[:4])
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		disk := store.NewDisk()
		disk.Write(ImageFile(5), data)
		ReadImage(disk, 5) // must not panic
	})
}
