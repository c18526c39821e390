package tcp

import (
	"encoding/binary"
	"fmt"

	"bmx/internal/transport"
)

// Payload codec: the `any` payload of a transport.Msg (and of call replies)
// crosses the wire as a blob nested inside the frame — one tag byte, then
// the body written by the codec its package registered with
// transport.RegisterPayload (dsm, core, ssp, cluster and cmd/bmxd, each in
// its wire.go). A nil payload is an empty blob. Encoding a type nobody
// registered is an error, and so is an unknown tag or a body its decoder
// rejects; each surfaces through the path the message took (msg.encodeError
// or msg.decodeError for sends, the call's error for calls and replies).
//
// The blob is decoded only after the frame decoder has bounds-checked it
// against the received body, and the decoders copy what they keep, so a
// decoded payload never aliases the read buffer, which the stream reuses
// for its next frame.

// The primitive payloads the transport tests, the conformance suite, the
// peer control-channel test and the benchmark's wire probes send.
const (
	tagInt     byte = 1
	tagString  byte = 2
	tagUint64s byte = 3
)

func init() {
	transport.RegisterPayload(tagInt,
		func(dst []byte, v int) []byte { return transport.AppendVarint(dst, int64(v)) },
		(*transport.Reader).Int)
	transport.RegisterPayload(tagString, transport.AppendString, (*transport.Reader).Str)
	transport.RegisterPayload(tagUint64s, transport.AppendUvarints[uint64], transport.ReadUvarints[uint64])
}

// appendPayloadBlob appends a payload blob to dst: raw as it is when v is
// nil, else v encoded straight into dst — tag and body first, then shifted
// up by the few bytes its length prefix takes, so no intermediate buffer is
// built. A nil v with no raw bytes is the empty blob of a nil payload.
func appendPayloadBlob(dst, raw []byte, v any) ([]byte, error) {
	if v == nil {
		return transport.AppendBlob(dst, raw), nil
	}
	start := len(dst)
	dst, err := transport.AppendPayload(dst, v)
	if err != nil {
		return dst[:start], fmt.Errorf("tcp: encode payload: %w", err)
	}
	n := len(dst) - start
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	dst = append(dst, pre[:k]...)
	copy(dst[start+k:], dst[start:start+n])
	copy(dst[start:], pre[:k])
	return dst, nil
}

// decodePayload decodes the bytes of a payload blob (tag, then body); an
// empty blob is a nil payload.
func decodePayload(b []byte) (any, error) {
	v, err := transport.DecodePayload(b)
	if err != nil {
		return nil, fmt.Errorf("tcp: decode payload: %w", err)
	}
	return v, nil
}
