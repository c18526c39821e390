package tcp

import (
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
// decoded payload never aliases the read buffer.

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

// encodePayload renders v as a tagged blob; nil stays empty.
func encodePayload(v any) ([]byte, error) {
	b, err := transport.AppendPayload(nil, v)
	if err != nil {
		return nil, fmt.Errorf("tcp: encode payload: %w", err)
	}
	return b, nil
}

// decodePayload reverses encodePayload; an empty blob is a nil payload.
func decodePayload(b []byte) (any, error) {
	v, err := transport.DecodePayload(b)
	if err != nil {
		return nil, fmt.Errorf("tcp: decode payload: %w", err)
	}
	return v, nil
}
