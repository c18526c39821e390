package transport

import (
	"errors"
	"fmt"
	"testing"
)

func TestWireErrorRoundTrip(t *testing.T) {
	orig := fmt.Errorf("tcp: call dsm.acquire 1 -> 0: %w", ErrPartitioned)

	name := WireErrorName(orig)
	if name != "transport.partitioned" {
		t.Fatalf("WireErrorName = %q, want transport.partitioned", name)
	}

	back := WireError(name, orig.Error())
	if !errors.Is(back, ErrPartitioned) {
		t.Fatalf("reconstructed error does not wrap ErrPartitioned: %v", back)
	}
	if back.Error() != orig.Error() {
		t.Fatalf("reconstructed text %q != original %q", back.Error(), orig.Error())
	}
}

func TestWireErrorBareSentinel(t *testing.T) {
	back := WireError("transport.partitioned", ErrPartitioned.Error())
	if back != ErrPartitioned { //nolint:errorlint // wire decode returns the identical sentinel
		t.Fatalf("bare sentinel did not decode to the sentinel value: %v", back)
	}
}

func TestWireErrorUnknownName(t *testing.T) {
	if name := WireErrorName(errors.New("some app failure")); name != "" {
		t.Fatalf("unregistered error matched %q", name)
	}
	back := WireError("", "some app failure")
	if back == nil || back.Error() != "some app failure" {
		t.Fatalf("plain decode: %v", back)
	}
	if errors.Is(back, ErrPartitioned) {
		t.Fatal("plain decode must not wrap any sentinel")
	}
}

// errSentinelA is registered once per process under test.sentinelA; a
// package-level value keeps a second run of the test (-count=2) a
// re-registration of the same value, not a conflict.
var errSentinelA = errors.New("sentinel A")

func TestRegisterWireErrorIdempotentAndConflict(t *testing.T) {
	RegisterWireError("test.sentinelA", errSentinelA)
	RegisterWireError("test.sentinelA", errSentinelA) // same value: no-op

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name with a different value must panic")
		}
	}()
	RegisterWireError("test.sentinelA", errors.New("impostor"))
}
