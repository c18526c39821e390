// Package tcp is the real-socket implementation of transport.Network: one
// persistent TCP stream per process pair carrying length-prefixed frames.
//
// The wire unit is a frame: a 4-byte big-endian length followed by a
// hand-rolled binary body (type tag, Lamport tick, then type-specific
// fields). Protocol payloads — the `any` in transport.Msg — are carried
// opaquely inside the frame as a self-describing gob blob (see payload.go),
// so the frame decoder itself touches no reflection and can be fuzzed
// byte-by-byte: every length it reads is bounds-checked against the bytes
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
	Payload   []byte // opaque payload blob (gob, see payload.go)

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
	errFrameTooBig    = errors.New("tcp: frame exceeds MaxFrameBytes")
	errFrameEmpty     = errors.New("tcp: empty frame")
	errFrameTruncated = errors.New("tcp: frame body truncated")
	errFrameTrailing  = errors.New("tcp: trailing bytes after frame body")
	errFrameType      = errors.New("tcp: unknown frame type")
	errFrameClass     = errors.New("tcp: unknown message class")
)

// appendFrame appends the length-prefixed wire encoding of f to dst.
func appendFrame(dst []byte, f *frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix backfilled below
	dst = append(dst, byte(f.Type))
	dst = binary.AppendUvarint(dst, f.Tick)
	switch f.Type {
	case frameHello:
		dst = appendString(dst, f.ListenAddr)
		dst = binary.AppendUvarint(dst, uint64(len(f.Nodes)))
		for _, n := range f.Nodes {
			dst = appendNodeID(dst, n)
		}
	case frameMsg, frameCall:
		dst = appendNodeID(dst, f.From)
		dst = appendNodeID(dst, f.To)
		dst = appendString(dst, f.Kind)
		dst = append(dst, byte(f.Class))
		if f.Type == frameMsg {
			dst = binary.AppendUvarint(dst, f.Seq)
		} else {
			dst = binary.AppendUvarint(dst, f.ReqID)
		}
		dst = binary.AppendUvarint(dst, uint64(max(f.Bytes, 0)))
		dst = binary.AppendUvarint(dst, uint64(max(f.Piggyback, 0)))
		dst = appendBytes(dst, f.Payload)
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
		if f.HasErr {
			dst = append(dst, 1)
			dst = appendString(dst, f.ErrName)
			dst = appendString(dst, f.ErrDetail)
		} else {
			dst = append(dst, 0)
		}
		dst = appendBytes(dst, f.Payload)
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
// every internal length validated against the bytes remaining, so hostile
// input cannot provoke a panic or an allocation beyond len(body).
func decodeFrame(body []byte) (frame, error) {
	var f frame
	r := frameReader{b: body}
	t, err := r.byte()
	if err != nil {
		return f, errFrameEmpty
	}
	f.Type = frameType(t)
	if f.Tick, err = r.uvarint(); err != nil {
		return f, err
	}
	switch f.Type {
	case frameHello:
		if f.ListenAddr, err = r.str(); err != nil {
			return f, err
		}
		n, err := r.uvarint()
		if err != nil {
			return f, err
		}
		// Each node costs at least one body byte, so the count is
		// implicitly bounded by the data actually present.
		if n > uint64(r.rem()) {
			return f, errFrameTruncated
		}
		f.Nodes = make([]addr.NodeID, n)
		for i := range f.Nodes {
			if f.Nodes[i], err = r.nodeID(); err != nil {
				return f, err
			}
		}
	case frameMsg, frameCall:
		if f.From, err = r.nodeID(); err != nil {
			return f, err
		}
		if f.To, err = r.nodeID(); err != nil {
			return f, err
		}
		if f.Kind, err = r.str(); err != nil {
			return f, err
		}
		cl, err := r.byte()
		if err != nil {
			return f, err
		}
		f.Class = transport.Class(cl)
		if !f.Class.Valid() {
			return f, fmt.Errorf("%w: %d", errFrameClass, cl)
		}
		seq, err := r.uvarint()
		if err != nil {
			return f, err
		}
		if f.Type == frameMsg {
			f.Seq = seq
		} else {
			f.ReqID = seq
		}
		b, err := r.uvarint()
		if err != nil {
			return f, err
		}
		p, err := r.uvarint()
		if err != nil {
			return f, err
		}
		f.Bytes, f.Piggyback = clampInt(b), clampInt(p)
		if f.Payload, err = r.blob(); err != nil {
			return f, err
		}
		// Optional trailing span field: bytes remaining after the payload
		// must be exactly the three span uvarints (each bounds-checked; a
		// torn span errors as truncated, anything extra as trailing).
		if r.rem() > 0 {
			if f.Trace, err = r.uvarint(); err != nil {
				return f, err
			}
			if f.Span, err = r.uvarint(); err != nil {
				return f, err
			}
			if f.SParent, err = r.uvarint(); err != nil {
				return f, err
			}
		}
	case frameReply:
		if f.ReqID, err = r.uvarint(); err != nil {
			return f, err
		}
		rb, err := r.uvarint()
		if err != nil {
			return f, err
		}
		f.ReplyBytes = clampInt(rb)
		he, err := r.byte()
		if err != nil {
			return f, err
		}
		f.HasErr = he != 0
		if f.HasErr {
			if f.ErrName, err = r.str(); err != nil {
				return f, err
			}
			if f.ErrDetail, err = r.str(); err != nil {
				return f, err
			}
		}
		if f.Payload, err = r.blob(); err != nil {
			return f, err
		}
	default:
		return f, fmt.Errorf("%w: %d", errFrameType, f.Type)
	}
	if r.rem() != 0 {
		return f, errFrameTrailing
	}
	return f, nil
}

// readFrame reads one length-prefixed frame from r. The length prefix is
// validated before the body is read; the body buffer is bounded by
// MaxFrameBytes and by the announced length.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return frame{}, errFrameEmpty
	}
	if n > MaxFrameBytes {
		return frame{}, fmt.Errorf("%w: announced %d bytes", errFrameTooBig, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, fmt.Errorf("tcp: frame body: %w", err)
	}
	return decodeFrame(body)
}

// frameReader is a bounds-checked cursor over one frame body.
type frameReader struct {
	b []byte
	i int
}

func (r *frameReader) rem() int { return len(r.b) - r.i }

func (r *frameReader) byte() (byte, error) {
	if r.i >= len(r.b) {
		return 0, errFrameTruncated
	}
	c := r.b[r.i]
	r.i++
	return c, nil
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, errFrameTruncated
	}
	r.i += n
	return v, nil
}

// blob reads a uvarint length followed by that many raw bytes. The length
// is validated against the remaining body before slicing, so a lying
// prefix cannot read out of bounds or force an oversized allocation.
func (r *frameReader) blob() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.rem()) {
		return nil, errFrameTruncated
	}
	if n == 0 {
		return nil, nil
	}
	b := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	return b, nil
}

func (r *frameReader) str() (string, error) {
	b, err := r.blob()
	return string(b), err
}

func (r *frameReader) nodeID() (addr.NodeID, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(^uint32(0)) {
		return 0, fmt.Errorf("tcp: node id out of range: %d", v)
	}
	return addr.NodeID(int32(uint32(v))), nil
}

func appendNodeID(dst []byte, n addr.NodeID) []byte {
	return binary.AppendUvarint(dst, uint64(uint32(n)))
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// clampInt converts a wire-read uvarint to a non-negative int without
// overflow on 32-bit builds.
func clampInt(v uint64) int {
	if v > uint64(int(^uint(0)>>1)) {
		return int(^uint(0) >> 1)
	}
	return int(v)
}
