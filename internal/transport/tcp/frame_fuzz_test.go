package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

// seedFrames are realistic frames of every type, carrying the real
// message kinds the protocol layers put on the wire.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	pb, err := transport.AppendPayload(nil, []uint64{7, 9, 11})
	if err != nil {
		t.Fatal(err)
	}
	frames := []*frame{
		{Type: frameHello, Tick: 41, ListenAddr: "127.0.0.1:9001", Nodes: []addr.NodeID{0, 2, 5}},
		{Type: frameMsg, Tick: 99, From: 1, To: 2, Kind: "gc.table", Class: transport.ClassGC,
			Seq: 17, Bytes: 120, Piggyback: 24, Payload: pb},
		{Type: frameMsg, Tick: 7, From: 0, To: 1, Kind: "dsm.location", Class: transport.ClassApp, Seq: 1},
		{Type: frameCall, Tick: 100, From: 2, To: 0, Kind: "dsm.acquireWrite", Class: transport.ClassApp,
			ReqID: 55, Bytes: 64, Piggyback: 8, Payload: pb},
		{Type: frameCall, Tick: 3, From: 1, To: 0, Kind: "gc.scion", Class: transport.ClassGC, ReqID: 1},
		// Span-bearing variants: the optional trailing span field on msg and
		// call frames.
		{Type: frameMsg, Tick: 50, From: 0, To: 2, Kind: "gc.table", Class: transport.ClassGC,
			Seq: 3, Payload: pb, Trace: 0xabc123, Span: 0xdef456, SParent: 0x789},
		{Type: frameCall, Tick: 51, From: 2, To: 1, Kind: "dsm.acquire", Class: transport.ClassApp,
			ReqID: 77, Bytes: 32, Payload: pb, Trace: 1 << 41, Span: 1<<41 | 9, SParent: 1 << 41},
		{Type: frameReply, Tick: 101, ReqID: 55, ReplyBytes: 48, Payload: pb},
		{Type: frameReply, Tick: 12, ReqID: 9, HasErr: true,
			ErrName: "transport.partitioned", ErrDetail: "tcp: call dsm.acquireWrite 2 -> 0: transport: endpoints partitioned"},
	}
	var out [][]byte
	for _, f := range frames {
		buf, err := appendFrame(nil, f, nil)
		if err != nil {
			t.Fatalf("encode seed %v: %v", f.Type, err)
		}
		out = append(out, buf)
	}
	return out
}

// FuzzDecodeFrame feeds the frame decoder arbitrary bodies: torn frames,
// truncated payloads, lying length fields and garbage must all come back
// as errors — never a panic, never an allocation beyond the input — and
// whatever does decode must survive a canonical re-encode round trip.
func FuzzDecodeFrame(f *testing.F) {
	for _, buf := range seedFrames(f) {
		f.Add(buf[4:]) // decoder input is the body after the length prefix
		if len(buf) > 6 {
			f.Add(buf[4 : len(buf)-2]) // torn tail
			f.Add(buf[5:])             // missing leading byte
		}
	}
	f.Add([]byte{})
	f.Add([]byte{byte(frameMsg), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(frameWithClass(f, frameCall, 2)[4:]) // a class byte no code defines
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrame(body, nil)
		if err != nil {
			return
		}
		if !fr.Class.Valid() {
			t.Fatalf("decoded a frame of undefined class %d", int(fr.Class))
		}
		re, err := appendFrame(nil, &fr, nil)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		fr2, err := decodeFrame(re[4:], nil)
		if err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v", err)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", fr, fr2)
		}
	})
}

// TestFrameSpanEncoding pins the span field's wire rules: a zero span adds
// no bytes (byte-identical to the pre-span format), a non-zero span decodes
// back exactly, and a torn span — fewer than its three uvarints after the
// payload — errors as truncated rather than decoding partially.
func TestFrameSpanEncoding(t *testing.T) {
	base := frame{Type: frameMsg, Tick: 9, From: 1, To: 2, Kind: "dsm.acquire",
		Class: transport.ClassApp, Seq: 4, Bytes: 16}
	plain, err := appendFrame(nil, &base, nil)
	if err != nil {
		t.Fatal(err)
	}
	spanned := base
	spanned.Trace, spanned.Span, spanned.SParent = 0x111, 0x222, 0x333
	wire, err := appendFrame(nil, &spanned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) <= len(plain) {
		t.Fatalf("span field added no bytes: %d vs %d", len(wire), len(plain))
	}
	// Zero span ⇒ byte-identical to a frame that never had the field.
	rezero := spanned
	rezero.Trace, rezero.Span, rezero.SParent = 0, 0, 0
	replain, err := appendFrame(nil, &rezero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, replain) {
		t.Fatal("zero-span frame is not byte-identical to the span-free encoding")
	}
	got, err := decodeFrame(wire[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != 0x111 || got.Span != 0x222 || got.SParent != 0x333 {
		t.Fatalf("span fields did not round-trip: %+v", got)
	}
	// Tearing the span at every cut point errors cleanly (bounds check).
	// Cutting ALL span bytes is the legal span-free format, so the torn
	// range starts one byte in.
	for cut := len(plain) + 1; cut < len(wire); cut++ {
		if _, err := decodeFrame(wire[4:cut], nil); err == nil {
			t.Fatalf("torn span at %d/%d decoded successfully", cut, len(wire))
		}
	}
}

// A stream's frame reader decodes every frame though it reuses one body
// buffer, and its kind table stops growing at maxKinds however many kinds a
// peer makes up.
func TestFrameReaderReusesBufferAndBoundsKinds(t *testing.T) {
	var stream []byte
	const n = maxKinds + 50
	for i := 0; i < n; i++ {
		var err error
		stream, err = appendFrame(stream, &frame{Type: frameMsg, Kind: fmt.Sprintf("kind.%d", i%(n-10)), Seq: uint64(i)}, i)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := newFrameReader(bytes.NewReader(stream))
	for i := 0; i < n; i++ {
		f, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		v, err := decodePayload(f.Payload)
		if want := fmt.Sprintf("kind.%d", i%(n-10)); err != nil || f.Kind != want || f.Seq != uint64(i) || v != i {
			t.Fatalf("frame %d: kind %q seq %d payload %v (%v)", i, f.Kind, f.Seq, v, err)
		}
	}
	if len(r.kinds) != maxKinds {
		t.Fatalf("kind table holds %d kinds, want the cap %d", len(r.kinds), maxKinds)
	}
}

// A payload encoded in place, straight into the frame buffer, yields the
// same bytes as the payload encoded on its own and copied in as a blob —
// for msg, call and reply frames, and for bodies whose length prefix takes
// one, two or three bytes.
func TestFramePayloadInPlace(t *testing.T) {
	for _, words := range []int{0, 3, 60, 20000} {
		v := make([]uint64, words)
		for i := range v {
			v[i] = uint64(i) << 9
		}
		blob, err := transport.AppendPayload(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []frame{
			{Type: frameMsg, Tick: 3, From: 1, To: 2, Kind: "gc.table", Seq: 8, Bytes: 64, Trace: 5, Span: 6, SParent: 7},
			{Type: frameCall, Tick: 4, From: 2, To: 1, Kind: "dsm.acquire", ReqID: 9},
			{Type: frameReply, Tick: 5, ReqID: 9, ReplyBytes: 16},
		} {
			f.Payload = blob
			want, err := appendFrame(nil, &f, nil)
			if err != nil {
				t.Fatal(err)
			}
			f.Payload = nil
			got, err := appendFrame([]byte("prefix"), &f, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("type %d, %d words: in-place encoding differs from the blob encoding", f.Type, words)
			}
		}
	}
	// A payload with no codec fails the frame and leaves dst as it was.
	f := frame{Type: frameMsg, Kind: "k"}
	if got, err := appendFrame([]byte("x"), &f, struct{}{}); !errors.Is(err, transport.ErrNoCodec) || string(got) != "x" {
		t.Fatalf("unregistered payload: (%q, %v)", got, err)
	}
}

// frameWithClass encodes an otherwise well-formed msg or call frame whose
// class byte is cl.
func frameWithClass(t testing.TB, typ frameType, cl byte) []byte {
	t.Helper()
	buf, err := appendFrame(nil, &frame{Type: typ, Tick: 5, From: 1, To: 0, Kind: "dsm.acquire",
		Class: transport.Class(cl), Seq: 2, ReqID: 2, Bytes: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDecodeFrameRejectsUnknownClass pins that the class byte is validated
// like every other field read from the wire: only app and gc decode; any
// other value is an error, never a Msg.Class handed to handlers and probes.
func TestDecodeFrameRejectsUnknownClass(t *testing.T) {
	for _, typ := range []frameType{frameMsg, frameCall} {
		for _, cl := range []transport.Class{transport.ClassApp, transport.ClassGC} {
			fr, err := decodeFrame(frameWithClass(t, typ, byte(cl))[4:], nil)
			if err != nil || fr.Class != cl {
				t.Fatalf("type %d class %v: decoded (%v, %v)", typ, cl, fr.Class, err)
			}
		}
		for _, cl := range []byte{2, 7, 255} {
			if _, err := decodeFrame(frameWithClass(t, typ, cl)[4:], nil); !errors.Is(err, transport.ErrBadClass) {
				t.Fatalf("type %d class byte %d: err = %v, want transport.ErrBadClass", typ, cl, err)
			}
		}
	}
}

// A length prefix announcing more than MaxFrameBytes is rejected before
// any body byte is read or allocated.
func TestReadFrameOversizedPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes+1)
	_, err := newFrameReader(bytes.NewReader(hdr[:])).next()
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("MaxFrameBytes")) {
		t.Fatalf("oversized prefix: err = %v", err)
	}
}

// A truncated stream — prefix promising more than arrives — errors
// cleanly at any cut point.
func TestReadFrameTruncated(t *testing.T) {
	for _, buf := range seedFrames(t) {
		for cut := 0; cut < len(buf); cut++ {
			if _, err := newFrameReader(bytes.NewReader(buf[:cut])).next(); err == nil {
				t.Fatalf("truncation at %d/%d decoded successfully", cut, len(buf))
			}
		}
		// The full frame still decodes after all that slicing.
		if _, err := newFrameReader(bytes.NewReader(buf)).next(); err != nil {
			t.Fatalf("intact frame failed: %v", err)
		}
	}
}

// Back-to-back frames on one stream decode independently; a garbage
// middle frame errors without corrupting the reader's position discipline
// (the caller tears the connection down on first error, per readLoop).
func TestReadFrameSequential(t *testing.T) {
	var stream []byte
	seeds := seedFrames(t)
	for _, buf := range seeds {
		stream = append(stream, buf...)
	}
	r := newFrameReader(bytes.NewReader(stream))
	for i := range seeds {
		if _, err := r.next(); err != nil {
			t.Fatalf("frame %d of stream: %v", i, err)
		}
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("clean EOF expected at stream end, got %v", err)
	}
}
