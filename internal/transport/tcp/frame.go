// Package tcp is the real-socket implementation of transport.Network:
// persistent TCP streams carrying length-prefixed frames, each process
// sending on the streams it dialed.
//
// The wire unit is a frame: a 4-byte big-endian length followed by a
// hand-rolled binary body (type tag, Lamport tick, then type-specific
// fields). Protocol payloads — the `any` in transport.Msg — ride inside the
// frame as an opaque blob (tag byte, then body; see payload.go) that the
// frame decoder only slices out, so it can be fuzzed byte-by-byte on its
// own. Frame and payload decoders read through the one bounds-checked
// cursor, transport.Reader: every length is checked against the bytes
// actually present, so torn, truncated or hostile input errors cleanly
// without panicking or allocating beyond the data on hand.
//
// Frame kinds:
//
//   - hello: sent by both ends immediately after connect, and again
//     whenever a new local node registers. Announces the sender's canonical
//     listen address (its cluster-wide identity) and its local NodeIDs.
//   - msg: one asynchronous transport.Msg. TCP's in-order delivery plus the
//     one-stream-per-pair rule gives the per-pair FIFO the scion cleaner
//     requires (§6.1); the sender-assigned Seq makes gaps visible as gaps.
//   - call: a synchronous request, tagged with a request ID.
//   - reply: the response to a call, carrying the request ID, an optional
//     error (sentinel name + detail, see transport.RegisterWireError), and
//     the reply payload.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

// MaxFrameBytes bounds a single frame body. Larger announced lengths are
// rejected before any body byte is read.
const MaxFrameBytes = 16 << 20

// frameType tags the wire meaning of a frame body.
type frameType uint8

const (
	frameHello frameType = 1
	frameMsg   frameType = 2
	frameCall  frameType = 3
	frameReply frameType = 4
)

// frame is the decoded form of one wire frame. Only the fields of the
// active Type are meaningful.
type frame struct {
	Type frameType
	Tick uint64 // sender's Lamport tick at encode time

	// hello
	ListenAddr string
	Nodes      []addr.NodeID

	// msg & call
	From, To  addr.NodeID
	Kind      string
	Class     transport.Class
	Seq       uint64 // msg only
	ReqID     uint64 // call & reply
	Bytes     int
	Piggyback int
	Payload   []byte // payload blob: tag byte, then body (see payload.go)

	// reply
	ReplyBytes int
	HasErr     bool
	ErrName    string // registered sentinel name, "" if none matched
	ErrDetail  string

	// msg & call: optional causal span context (obs/span.go), encoded as a
	// trailing field only when non-zero — a zero span's frame is
	// byte-identical to the pre-span wire format, so tracing-off runs are
	// pinned unchanged.
	Trace, Span, SParent uint64
}

var (
	errFrameTooBig = errors.New("tcp: frame exceeds MaxFrameBytes")
	errFrameEmpty  = errors.New("tcp: empty frame")
	errFrameType   = errors.New("tcp: unknown frame type")
)

// appendFrame appends the length-prefixed wire encoding of f to dst. A
// non-nil v is the payload of a msg, call or reply frame, encoded straight
// into dst in place of f.Payload; either way the bytes are the same.
func appendFrame(dst []byte, f *frame, v any) ([]byte, error) {
	start := len(dst)
	var err error
	dst = append(dst, 0, 0, 0, 0) // length prefix backfilled below
	dst = append(dst, byte(f.Type))
	dst = binary.AppendUvarint(dst, f.Tick)
	switch f.Type {
	case frameHello:
		dst = transport.AppendString(dst, f.ListenAddr)
		dst = transport.AppendSlice(dst, f.Nodes, transport.AppendNodeID)
	case frameMsg, frameCall:
		dst = transport.AppendNodeID(dst, f.From)
		dst = transport.AppendNodeID(dst, f.To)
		dst = transport.AppendString(dst, f.Kind)
		dst = transport.AppendClass(dst, f.Class)
		if f.Type == frameMsg {
			dst = binary.AppendUvarint(dst, f.Seq)
		} else {
			dst = binary.AppendUvarint(dst, f.ReqID)
		}
		dst = binary.AppendUvarint(dst, uint64(max(f.Bytes, 0)))
		dst = binary.AppendUvarint(dst, uint64(max(f.Piggyback, 0)))
		if dst, err = appendPayloadBlob(dst, f.Payload, v); err != nil {
			return dst[:start], err
		}
		// Optional trailing span field: present iff any component is
		// non-zero, keeping span-free frames byte-identical to the
		// pre-span encoding.
		if f.Trace != 0 || f.Span != 0 || f.SParent != 0 {
			dst = binary.AppendUvarint(dst, f.Trace)
			dst = binary.AppendUvarint(dst, f.Span)
			dst = binary.AppendUvarint(dst, f.SParent)
		}
	case frameReply:
		dst = binary.AppendUvarint(dst, f.ReqID)
		dst = binary.AppendUvarint(dst, uint64(max(f.ReplyBytes, 0)))
		if dst = transport.AppendBool(dst, f.HasErr); f.HasErr {
			dst = transport.AppendString(dst, f.ErrName)
			dst = transport.AppendString(dst, f.ErrDetail)
		}
		if dst, err = appendPayloadBlob(dst, f.Payload, v); err != nil {
			return dst[:start], err
		}
	default:
		return dst[:start], fmt.Errorf("%w: %d", errFrameType, f.Type)
	}
	body := len(dst) - start - 4
	if body > MaxFrameBytes {
		return dst[:start], fmt.Errorf("%w: %d bytes", errFrameTooBig, body)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// decodeFrame decodes one frame body (the bytes after the length prefix).
// It is total: any input either yields a frame or a descriptive error, with
// every internal length validated against the bytes remaining by
// transport.Reader, so hostile input cannot provoke a panic or an
// allocation beyond len(body). The Payload of the result aliases body; kind
// strings come from kinds when it is non-nil (see intern).
func decodeFrame(body []byte, kinds map[string]string) (frame, error) {
	var f frame
	if len(body) == 0 {
		return f, errFrameEmpty
	}
	r := transport.NewReader(body)
	f.Type = frameType(r.Byte())
	f.Tick = r.Uvarint()
	switch f.Type {
	case frameHello:
		f.ListenAddr = r.Str()
		// Each node costs at least one body byte, so Count bounds the
		// allocation by the data actually present. A loop rather than
		// transport.ReadSlice keeps r off the heap for every frame.
		if n := r.Count(1); n > 0 {
			f.Nodes = make([]addr.NodeID, n)
			for i := range f.Nodes {
				f.Nodes[i] = r.NodeID()
			}
		}
	case frameMsg, frameCall:
		f.From = r.NodeID()
		f.To = r.NodeID()
		f.Kind = intern(kinds, r.Blob())
		f.Class = r.Class()
		if seq := r.Uvarint(); f.Type == frameMsg {
			f.Seq = seq
		} else {
			f.ReqID = seq
		}
		f.Bytes = clampInt(r.Uvarint())
		f.Piggyback = clampInt(r.Uvarint())
		f.Payload = r.Blob()
		// Optional trailing span field: bytes remaining after the payload
		// must be exactly the three span uvarints (a torn span errors as
		// truncated, anything extra as trailing).
		if r.Rem() > 0 {
			f.Trace = r.Uvarint()
			f.Span = r.Uvarint()
			f.SParent = r.Uvarint()
		}
	case frameReply:
		f.ReqID = r.Uvarint()
		f.ReplyBytes = clampInt(r.Uvarint())
		if f.HasErr = r.Bool(); f.HasErr {
			f.ErrName = r.Str()
			f.ErrDetail = r.Str()
		}
		f.Payload = r.Blob()
	default:
		if r.Err() == nil {
			return f, fmt.Errorf("%w: %d", errFrameType, f.Type)
		}
	}
	return f, r.End()
}

// maxKinds bounds a stream's kind table and keptBufBytes the buffers a
// stream keeps between frames, so neither a hostile peer nor one huge frame
// pins memory for the stream's lifetime.
const (
	maxKinds     = 256
	keptBufBytes = 64 << 10
)

// intern returns b as a string: the copy kinds already holds when it has
// seen b, else a fresh one it keeps while it has room. The protocol's kinds
// are a small closed set, so a stream's steady traffic allocates none.
func intern(kinds map[string]string, b []byte) string {
	if s, ok := kinds[string(b)]; ok {
		return s
	}
	s := string(b)
	if kinds != nil && len(kinds) < maxKinds {
		kinds[s] = s
	}
	return s
}

// frameReader reads one stream's length-prefixed frames into a body buffer
// it reuses, interning kind strings as it goes. A frame's Payload aliases
// that buffer, so it must be decoded before the next call to next.
type frameReader struct {
	r     io.Reader
	hdr   [4]byte
	body  []byte
	kinds map[string]string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, kinds: make(map[string]string)}
}

// next reads one frame. The length prefix is validated before the body is
// read; the body is bounded by MaxFrameBytes and by the announced length.
func (fr *frameReader) next() (frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n == 0 {
		return frame{}, errFrameEmpty
	}
	if n > MaxFrameBytes {
		return frame{}, fmt.Errorf("%w: announced %d bytes", errFrameTooBig, n)
	}
	body := fr.body
	if uint32(cap(body)) < n {
		body = make([]byte, n)
		if n <= keptBufBytes {
			fr.body = body
		}
	}
	body = body[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return frame{}, fmt.Errorf("tcp: frame body: %w", err)
	}
	return decodeFrame(body, fr.kinds)
}

// clampInt converts a wire-read uvarint to a non-negative int without
// overflow on 32-bit builds.
func clampInt(v uint64) int {
	if v > uint64(int(^uint(0)>>1)) {
		return int(^uint(0) >> 1)
	}
	return int(v)
}
