package main

import (
	"strings"
	"testing"
)

// flatfs keeps its durable half in real files, so -store flatfs without a
// directory is an error that names the missing flag, not a silent
// in-memory run; -store mem is the in-memory store.
func TestStoreConfigFlatFSNeedsStoreDir(t *testing.T) {
	if _, _, err := storeConfig("flatfs", ""); err == nil || !strings.Contains(err.Error(), "-store-dir") {
		t.Fatalf("storeConfig(flatfs, \"\") error = %v, want one naming -store-dir", err)
	}
	withDisk, factory, err := storeConfig("flatfs", t.TempDir())
	if err != nil || !withDisk || factory == nil {
		t.Fatalf("storeConfig(flatfs, dir) = %v, %v, %v", withDisk, factory != nil, err)
	}
	if s := factory().String(); !strings.Contains(s, "node1") {
		t.Fatalf("first node's store %s is not in its own subdirectory node1", s)
	}
}
