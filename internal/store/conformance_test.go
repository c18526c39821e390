package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// The backend-conformance suite: one battery of semantic tests run against
// every Store implementation via a table of constructors. It asserts only
// the guarantees of the Store contract — e.g. Sync(name) makes name
// durable; a shared-log backend is free to make other files durable too.

type backend struct {
	name string
	mk   func(t *testing.T) Store
}

func backendTable() []backend {
	return []backend{
		{"mem", func(t *testing.T) Store { return NewDisk() }},
		{"flatfs-dir", func(t *testing.T) Store { return NewFlatFS(t.TempDir()) }},
		{"lsm", func(t *testing.T) Store { return NewLSM() }},
		{"measured", func(t *testing.T) Store { return Measure(NewDisk(), nil, nil) }},
	}
}

func forEachBackend(t *testing.T, f func(t *testing.T, s Store)) {
	for _, b := range backendTable() {
		b := b
		t.Run(b.name, func(t *testing.T) { f(t, b.mk(t)) })
	}
}

func TestConformanceRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("a", []byte("hello"))
		got, ok := s.Read("a")
		if !ok || !bytes.Equal(got, []byte("hello")) {
			t.Fatalf("Read = %q, %v", got, ok)
		}
		if _, ok := s.Read("nope"); ok {
			t.Fatal("missing file exists")
		}
		if _, ok := s.ReadDurable("nope"); ok {
			t.Fatal("missing durable file exists")
		}
	})
}

func TestConformanceAppend(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Append("log", []byte("ab"))
		s.Append("log", []byte("cd"))
		if got, _ := s.Read("log"); string(got) != "abcd" {
			t.Fatalf("append = %q", got)
		}
	})
}

// TestConformanceDoesNotRetainData: Write and Append copy what they are
// given, so a caller that reuses its buffer afterwards (the redo log hands
// a sealed transaction's buffer to the next one) changes neither the
// volatile nor, after Sync, the durable contents.
func TestConformanceDoesNotRetainData(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		w, a := []byte("head"), []byte("tail")
		s.Write("f", w)
		s.Append("f", a)
		copy(w, "XXXX")
		copy(a, "YYYY")
		if got, _ := s.Read("f"); string(got) != "headtail" {
			t.Fatalf("Read after reusing the buffers = %q, want headtail", got)
		}
		s.Sync("f")
		copy(w, "ZZZZ")
		copy(a, "ZZZZ")
		if got, _ := s.ReadDurable("f"); string(got) != "headtail" {
			t.Fatalf("ReadDurable after reusing the buffers = %q, want headtail", got)
		}
	})
}

func TestConformanceDurableVsVolatile(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("f", []byte("old"))
		s.Sync("f")
		s.Write("f", []byte("new"))
		if got, _ := s.Read("f"); string(got) != "new" {
			t.Fatalf("volatile read = %q", got)
		}
		if got, _ := s.ReadDurable("f"); string(got) != "old" {
			t.Fatalf("durable read = %q", got)
		}
	})
}

func TestConformanceCrashDiscardsUnsynced(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("a", []byte("v1"))
		s.Sync("a")
		s.Write("a", []byte("v2"))
		s.Crash()
		if got, ok := s.Read("a"); !ok || string(got) != "v1" {
			t.Fatalf("after crash Read = %q, %v; want v1", got, ok)
		}
	})
}

func TestConformanceCrashRemovesNeverSyncedFile(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("tmp", []byte("x"))
		s.Crash()
		if _, ok := s.Read("tmp"); ok {
			t.Fatal("never-synced file survived crash")
		}
	})
}

// TestConformanceEmptySyncedFileSurvivesCrash: a file a Sync covered
// survives a crash even when it holds no bytes, as an empty file on disk
// does.
func TestConformanceEmptySyncedFileSurvivesCrash(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("empty", nil)
		s.Sync("empty")
		s.Crash()
		if got, ok := s.Read("empty"); !ok || len(got) != 0 {
			t.Fatalf("after crash Read = %q, %v; want an empty file", got, ok)
		}
		if got, ok := s.ReadDurable("empty"); !ok || len(got) != 0 {
			t.Fatalf("after crash ReadDurable = %q, %v; want an empty file", got, ok)
		}
	})
}

func TestConformanceSyncedSurvivesCrash(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Append("log", []byte("abcd"))
		s.Sync("log")
		s.Append("log", []byte("ef")) // torn tail: volatile only
		s.Crash()
		if got, _ := s.Read("log"); string(got) != "abcd" {
			t.Fatalf("after crash = %q, want synced prefix abcd", got)
		}
	})
}

func TestConformanceRemove(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("f", []byte("x"))
		s.Sync("f")
		s.Remove("f")
		if _, ok := s.Read("f"); ok {
			t.Fatal("file survived remove")
		}
	})
}

func TestConformanceRename(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("old", []byte("data"))
		s.Sync("old")
		s.Write("dst", []byte("stale"))
		s.Sync("dst")
		s.Rename("old", "dst")
		if _, ok := s.Read("old"); ok {
			t.Fatal("source survived rename")
		}
		if got, _ := s.Read("dst"); string(got) != "data" {
			t.Fatalf("dst = %q, want data", got)
		}
		s.Rename("ghost", "x") // renaming a missing file is a no-op
		if _, ok := s.Read("x"); ok {
			t.Fatal("rename of missing file created target")
		}
	})
}

// TestConformanceCheckpointSwap exercises the crash-atomic write-new /
// sync / swap protocol the RVM checkpoint uses: after the trailing sync of
// the destination, a crash must observe the new contents.
func TestConformanceCheckpointSwap(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("ckpt", []byte("v1"))
		s.Sync("ckpt")
		s.Write("ckpt.tmp", []byte("v2"))
		s.Sync("ckpt.tmp")
		s.Rename("ckpt.tmp", "ckpt")
		s.Sync("ckpt")
		s.Crash()
		if got, _ := s.Read("ckpt"); string(got) != "v2" {
			t.Fatalf("after swap+crash ckpt = %q, want v2", got)
		}
		if _, ok := s.Read("ckpt.tmp"); ok {
			t.Fatal("tmp file survived swap+crash")
		}
	})
}

// TestConformanceCrashAtEverySyncBoundary replays an append-only script,
// crashing after every prefix of it, and checks the two directional
// guarantees that hold for every backend: a file's durable content extends
// what its own last Sync covered, and never exceeds its volatile content.
func TestConformanceCrashAtEverySyncBoundary(t *testing.T) {
	type op struct {
		kind string // "append" | "sync"
		file string
		data string
	}
	files := []string{"f0", "f1", "f2"}
	var script []op
	for i := 0; i < 30; i++ {
		f := files[i%len(files)]
		script = append(script, op{"append", f, fmt.Sprintf("<%d>", i)})
		if i%3 == 2 {
			script = append(script, op{"sync", files[(i/3)%len(files)], ""})
		}
	}
	for _, b := range backendTable() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			for cut := 0; cut <= len(script); cut++ {
				s := b.mk(t)
				vol := map[string]string{}      // expected volatile content
				lastSync := map[string]string{} // content guaranteed durable
				for _, o := range script[:cut] {
					switch o.kind {
					case "append":
						s.Append(o.file, []byte(o.data))
						vol[o.file] += o.data
					case "sync":
						s.Sync(o.file)
						if _, ok := vol[o.file]; ok {
							lastSync[o.file] = vol[o.file]
						}
					}
				}
				s.Crash()
				for _, f := range files {
					got, ok := s.Read(f)
					want := lastSync[f]
					if !ok {
						if want != "" {
							t.Fatalf("cut %d: %s lost; last sync had %q", cut, f, want)
						}
						continue
					}
					if !bytes.HasPrefix(got, []byte(want)) {
						t.Fatalf("cut %d: %s = %q does not extend synced %q", cut, f, got, want)
					}
					if !bytes.HasPrefix([]byte(vol[f]), got) {
						t.Fatalf("cut %d: %s = %q exceeds volatile %q", cut, f, got, vol[f])
					}
				}
			}
		})
	}
}

func TestConformanceConcurrentHammer(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				private := fmt.Sprintf("own-%d", i)
				for j := 0; j < 100; j++ {
					s.Append("shared", []byte{byte(j)})
					s.Append(private, []byte{byte(j)})
					if j%10 == 0 {
						s.Sync("shared")
						s.Sync(private)
					}
					s.Read("shared")
					s.ReadDurable(private)
					s.Files()
				}
			}()
		}
		wg.Wait()
		if got, _ := s.Read("shared"); len(got) != 800 {
			t.Fatalf("shared length = %d, want 800", len(got))
		}
		for i := 0; i < 8; i++ {
			if got, _ := s.Read(fmt.Sprintf("own-%d", i)); len(got) != 100 {
				t.Fatalf("own-%d length = %d, want 100", i, len(got))
			}
		}
	})
}

func TestConformanceStatsMonotonic(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		s.Write("f", make([]byte, 10))
		w0, _, n0 := s.Stats()
		if w0 < 10 {
			t.Fatalf("written = %d after 10-byte write", w0)
		}
		s.Sync("f")
		w1, s1, n1 := s.Stats()
		if w1 < w0 || n1 != n0+1 || s1 <= 0 {
			t.Fatalf("stats after sync = %d %d %d (before %d _ %d)", w1, s1, n1, w0, n0)
		}
		if s.String() == "" {
			t.Fatal("String empty")
		}
	})
}

// TestFlatFSDirRecovery checks real cross-process recovery: a fresh FlatFS
// over the same directory sees exactly what fsync left there.
func TestFlatFSDirRecovery(t *testing.T) {
	dir := t.TempDir()
	s := NewFlatFS(dir)
	s.Write("seg-1", []byte("durable"))
	s.Sync("seg-1")
	s.Write("seg-2", []byte("volatile-only"))

	s2 := NewFlatFS(dir)
	if got, ok := s2.Read("seg-1"); !ok || string(got) != "durable" {
		t.Fatalf("recovered seg-1 = %q, %v", got, ok)
	}
	if _, ok := s2.Read("seg-2"); ok {
		t.Fatal("unsynced file visible to a fresh process")
	}
}

// TestLSMCompaction drives the log past its threshold and checks the fold
// preserves contents across a crash.
func TestLSMCompaction(t *testing.T) {
	s := NewLSM()
	for i := 0; i < lsmCompactThreshold+10; i++ {
		s.Write(fmt.Sprintf("f%d", i%7), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Sync("f0")
	if s.compactions == 0 {
		t.Fatal("no compaction after exceeding threshold")
	}
	s.Crash()
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, ok := s.Read(name); !ok {
			t.Fatalf("%s lost across compaction+crash", name)
		}
	}
	// The fold dropped history: the log is now one record per live file.
	if got := len(s.Files()); got != 7 {
		t.Fatalf("files = %d, want 7", got)
	}
}

type mapCounter struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *mapCounter) Add(name string, d int64) {
	c.mu.Lock()
	c.m[name] += d
	c.mu.Unlock()
}

// TestMeasureCounters checks the decorator feeds the counter registry.
func TestMeasureCounters(t *testing.T) {
	c := &mapCounter{m: make(map[string]int64)}
	s := Measure(NewDisk(), c, nil)
	s.Write("f", make([]byte, 8))
	s.Append("f", make([]byte, 4))
	s.Sync("f")
	s.Read("f")
	if c.m["store.bytes.written"] != 12 {
		t.Fatalf("bytes.written = %d", c.m["store.bytes.written"])
	}
	if c.m["store.bytes.synced"] != 12 {
		t.Fatalf("bytes.synced = %d", c.m["store.bytes.synced"])
	}
	if c.m["store.syncs"] != 1 || c.m["store.writes"] != 2 || c.m["store.reads"] != 1 {
		t.Fatalf("counters = %v", c.m)
	}
}
