package rvm

import (
	"encoding/hex"
	"strings"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/mem"
	"bmx/internal/store"
)

func TestCommitRecover(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(3, 0, 10, []uint64{1, 2, 3}, nil)
	tx.SetRange(3, 0, 20, []uint64{9}, nil)
	tx.Commit()

	d.Crash()
	recs := NewLog(d, "log").Recover()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if recs[0].Seg != 3 || recs[0].Off != 10 || len(recs[0].Words) != 3 || recs[0].Words[2] != 3 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Off != 20 || recs[1].Words[0] != 9 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
}

// TestLogFormatGolden pins the on-disk record format byte for byte: one
// transaction holding a short range, a 65-word range whose reference-map
// mask spans two words, a death record, then its commit marker. All
// integers are little-endian; a range record is tag, tx (u64), seg, gen,
// off, word count (u32 each), the words, then ⌈count/64⌉ mask words (u64
// each), bit i%64 of mask word i/64 being word off+i's reference-map bit.
func TestLogFormatGolden(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(0x0203, 0x04050607, 0x10, []uint64{0x0102030405060708, 9}, []uint64{0b10})
	wide := make([]uint64, 65)
	for i := range wide {
		wide[i] = 0x0a
	}
	tx.SetRange(0x0203, 0x04050607, 0x20, wide, []uint64{1 | 1<<63, 1})
	tx.SetDead(addr.OID(0x1122334455667788))
	tx.Commit()
	want := "52" + "0100000000000000" + "03020000" + "07060504" + "10000000" + "02000000" +
		"0807060504030201" + "0900000000000000" + "0200000000000000" +
		"52" + "0100000000000000" + "03020000" + "07060504" + "20000000" + "41000000" +
		strings.Repeat("0a00000000000000", 65) + "0100000000000080" + "0100000000000000" +
		"44" + "0100000000000000" + "8877665544332211" +
		"43" + "0100000000000000"
	got, _ := d.Read("log")
	if hex.EncodeToString(got) != want {
		t.Fatalf("log bytes\n got %x\nwant %s", got, want)
	}
	recs := l.Recover()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if r := recs[0]; r.Seg != 0x0203 || r.Gen != 0x04050607 || r.Off != 0x10 ||
		len(r.Words) != 2 || r.Words[0] != 0x0102030405060708 || r.Words[1] != 9 ||
		len(r.Refs) != 1 || r.Refs[0] != 2 {
		t.Fatalf("range record = %+v", r)
	}
	r := recs[1]
	if r.Off != 0x20 || len(r.Words) != 65 || r.Words[64] != 0x0a {
		t.Fatalf("wide range record = %+v", r)
	}
	if len(r.Refs) != 2 || r.Refs[0] != 1|1<<63 || r.Refs[1] != 1 {
		t.Fatalf("wide range record: mask %x, want bits 0, 63 and 64", r.Refs)
	}
	if r := recs[2]; !r.Dead || r.OID != 0x1122334455667788 {
		t.Fatalf("dead record = %+v", r)
	}
}

// TestTornMaskStopsScan: a range record whose words are whole but whose
// mask runs past the data is torn, like a short word run, and ends the scan.
func TestTornMaskStopsScan(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(0, 0, 0, []uint64{1}, nil)
	tx.Commit()
	tx = l.Begin()
	tx.SetRange(0, 0, 1, []uint64{2}, []uint64{1})
	tx.Commit()
	all, _ := d.Read("log")
	d.Write("log", all[:len(all)-9-4]) // drop the commit marker and half the mask
	d.Sync("log")
	if recs := l.Recover(); len(recs) != 1 || recs[0].Words[0] != 1 {
		t.Fatalf("recs = %+v, want only the first transaction's record", recs)
	}
}

// TestBeginReusesSealedBuffer: a sealed transaction's buffer goes to the
// next Begin, and what the first transaction logged is unchanged by the
// second one overwriting the buffer.
func TestBeginReusesSealedBuffer(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(0, 0, 0, make([]uint64, 100), nil)
	tx.Commit()
	tx2 := l.Begin()
	if cap(tx2.buf) < 9+16+8*100 {
		t.Fatalf("next Begin got a buffer of cap %d, want the sealed one", cap(tx2.buf))
	}
	tx2.SetRange(0, 0, 0, []uint64{7}, nil)
	tx2.Commit()
	recs := l.Recover()
	if len(recs) != 2 || len(recs[0].Words) != 100 || recs[0].Words[0] != 0 || recs[1].Words[0] != 7 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestUncommittedInvisible(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(1, 0, 0, []uint64{42}, nil)
	tx.seal("test") // written to the page cache, never forced

	d.Crash()
	if recs := NewLog(d, "log").Recover(); len(recs) != 0 {
		t.Fatalf("uncommitted transaction recovered: %v", recs)
	}
}

// TestAbort: a transaction is aborted by dropping it, and a dropped one
// leaves nothing for recovery even while later ones commit.
func TestAbort(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(1, 0, 0, []uint64{42}, nil)
	tx2 := l.Begin()
	tx2.SetRange(1, 0, 1, []uint64{7}, nil)
	tx2.Commit()
	recs := l.Recover()
	if len(recs) != 1 || recs[0].Words[0] != 7 {
		t.Fatalf("recs = %v", recs)
	}
}

func TestMultipleTxOrder(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	for i := uint64(1); i <= 3; i++ {
		tx := l.Begin()
		tx.SetRange(0, 0, int(i), []uint64{i}, nil)
		tx.Commit()
	}
	recs := l.Recover()
	if len(recs) != 3 {
		t.Fatalf("recs = %d", len(recs))
	}
	for i, r := range recs {
		if r.Words[0] != uint64(i+1) {
			t.Fatalf("out of order: %v", recs)
		}
	}
}

func TestTornTailIgnored(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(0, 0, 0, []uint64{1}, nil)
	tx.Commit()
	// Simulate a torn write: append garbage that looks like a record start.
	d.Append("log", []byte{'R', 1, 2, 3})
	d.Sync("log")
	recs := l.Recover()
	if len(recs) != 1 {
		t.Fatalf("recs = %d, want 1 (torn tail must be ignored)", len(recs))
	}
}

func TestCorruptTagStopsScan(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(0, 0, 0, []uint64{1}, nil)
	tx.Commit()
	d.Append("log", []byte{'X', 0, 0, 0, 0, 0, 0, 0, 0})
	d.Sync("log")
	if recs := l.Recover(); len(recs) != 1 {
		t.Fatalf("recs = %d", len(recs))
	}
}

func TestTruncate(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(0, 0, 0, []uint64{1}, nil)
	tx.Commit()
	l.Truncate()
	d.Crash()
	if recs := l.Recover(); len(recs) != 0 {
		t.Fatalf("recs after truncate = %v", recs)
	}
}

func TestFinishedTxPanics(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tx.SetRange(0, 0, 0, nil, nil)
}

func TestTxIDsUnique(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	a, b := l.Begin(), l.Begin()
	if a.id == b.id {
		t.Fatal("duplicate tx ids")
	}
}

func TestSegmentFileRoundTrip(t *testing.T) {
	d := store.NewDisk()
	WriteImage(d, mem.SegImage{ID: 9, Words: []uint64{5, 6, 7, 1 << 60}})
	d.Crash() // WriteImage syncs, so the image survives
	got, ok := ReadImage(d, 9)
	if !ok || len(got.Words) != 4 || got.Words[3] != 1<<60 {
		t.Fatalf("ReadImage = %v, %v", got, ok)
	}
	if _, ok := ReadImage(d, addr.SegID(1234)); ok {
		t.Fatal("missing segment should not read")
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	d := store.NewDisk()
	if recs := NewLog(d, "log").Recover(); recs != nil {
		t.Fatalf("recs = %v", recs)
	}
}

func TestCrashMidSequenceKeepsPrefix(t *testing.T) {
	// Transactions committed before the crash survive; the one after the
	// last sync does not.
	d := store.NewDisk()
	l := NewLog(d, "log")
	t1 := l.Begin()
	t1.SetRange(0, 0, 0, []uint64{1}, nil)
	t1.Commit()
	t2 := l.Begin()
	t2.SetRange(0, 0, 1, []uint64{2}, nil)
	t2.seal("test") // appended, never forced
	d.Crash()
	recs := l.Recover()
	if len(recs) != 1 || recs[0].Words[0] != 1 {
		t.Fatalf("recs = %v", recs)
	}
}

func TestDeadRecordRoundTrip(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(2, 0, 0, []uint64{7}, nil)
	tx.SetDead(addr.OID(0xdeadbeef))
	tx.Commit()
	d.Crash()
	recs := l.Recover()
	if len(recs) != 2 {
		t.Fatalf("recs = %d, want 2", len(recs))
	}
	if recs[1].OID != addr.OID(0xdeadbeef) || !recs[1].Dead {
		t.Fatalf("dead record = %+v", recs[1])
	}
}

func TestDeadRecordTornTail(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	tx := l.Begin()
	tx.SetRange(0, 0, 0, []uint64{1}, nil)
	tx.Commit()
	d.Append("log", []byte{'D', 1, 2}) // torn dead record
	d.Sync("log")
	if recs := l.Recover(); len(recs) != 1 {
		t.Fatalf("recs = %d, want 1", len(recs))
	}
}

func TestLogCounters(t *testing.T) {
	d := store.NewDisk()
	l := NewLog(d, "log")
	counts := map[string]int64{}
	l.SetCounter(func(name string, v int64) { counts[name] += v })
	tx := l.Begin()
	tx.SetRange(0, 0, 0, []uint64{1}, nil)
	tx.Commit()
	if counts["rvm.log.commits"] != 1 || counts["rvm.log.bytes"] == 0 {
		t.Fatalf("counts = %v", counts)
	}
	if _, _, syncs := d.Stats(); syncs != 1 {
		t.Fatalf("one commit cost %d syncs, want 1", syncs)
	}
}

func TestWriteImageCrashAtomic(t *testing.T) {
	d := store.NewDisk()
	img := mem.SegImage{ID: 4, Bunch: 2, AllocOff: 3,
		Words: []uint64{1, 2, 3}, ObjBits: []uint64{1}, RefBits: []uint64{0}}
	WriteImage(d, img)
	d.Crash() // the install is forced: it survives
	got, ok := ReadImage(d, 4)
	if !ok || got.Bunch != 2 || got.AllocOff != 3 || len(got.Words) != 3 {
		t.Fatalf("ReadImage = %+v, %v", got, ok)
	}
	for _, f := range d.Files() {
		if f == ImageFile(4)+".tmp" {
			t.Fatal("tmp file left behind")
		}
	}
	// Overwrite with a new image; old or new must be visible, never torn.
	img.Words = []uint64{9, 9, 9}
	WriteImage(d, img)
	d.Crash()
	got, ok = ReadImage(d, 4)
	if !ok || got.Words[0] != 9 {
		t.Fatalf("after overwrite = %+v, %v", got, ok)
	}
}

func TestLiveSetRoundTrip(t *testing.T) {
	d := store.NewDisk()
	oids := []addr.OID{3, 9, 0x7fffffffff}
	WriteLiveSet(d, 5, oids)
	d.Crash() // the write is forced: it survives
	set, ok := ReadLiveSet(d, 5)
	if !ok || len(set) != len(oids) {
		t.Fatalf("ReadLiveSet = %v, %v", set, ok)
	}
	for _, o := range oids {
		if !set[o] {
			t.Fatalf("live-set missing %v", o)
		}
	}
	if _, ok := ReadLiveSet(d, 6); ok {
		t.Fatal("live-set for the wrong bunch resolved")
	}
}

func TestLiveSetEmptyAndTruncated(t *testing.T) {
	d := store.NewDisk()
	WriteLiveSet(d, 2, nil)
	if set, ok := ReadLiveSet(d, 2); !ok || len(set) != 0 {
		t.Fatalf("empty live-set = %v, %v", set, ok)
	}
	// A truncated payload (fewer OID words than the header promises) is
	// rejected rather than half-parsed.
	data, _ := d.Read(LiveSetFile(2))
	data = append(data[:len(data):len(data)], make([]byte, 8)...)
	data[4] = 3 // claim 3 OIDs, provide 1
	d.Write(LiveSetFile(2), data)
	d.Sync(LiveSetFile(2))
	if _, ok := ReadLiveSet(d, 2); ok {
		t.Fatal("truncated live-set resolved")
	}
}
