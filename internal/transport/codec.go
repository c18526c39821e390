package transport

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"

	"bmx/internal/addr"
)

// Payload codecs. A wire transport ships the `any` payload of a Msg (and of
// a call reply) as a one-byte tag followed by a type-specific body. Each
// package that puts a payload type on the wire registers it from an init
// function in its wire.go, with an append-style encoder and a decoder over
// a Reader; every process of a cluster runs the same binary, so the tag
// tables agree by construction. Tag ranges, one per package:
//
//	1–15    primitives the tests and probes send (transport/tcp)
//	16–31   dsm
//	32–47   core
//	48–63   ssp
//	64–79   cluster
//	80–95   cmd/bmxd's driver protocol
//
// Tag 0 is never registered, so a zero first byte is always an error.
//
// Decoders are total: the Reader bounds every count by the bytes left,
// rejects non-canonical varints, out-of-range values, bools other than 0
// and 1, and map keys out of order, so a decoder allocates at most in
// proportion to its input and anything that decodes re-encodes to the same
// bytes. Empty slices and maps decode as nil — the one way a decoded value
// may differ from the sender's, which simnet hands over as is — so handlers
// treat nil and empty alike.

var (
	// ErrTruncated reports input that ends inside a value.
	ErrTruncated = errors.New("transport: input truncated")
	// ErrTrailing reports bytes left over after a complete value.
	ErrTrailing = errors.New("transport: trailing bytes")
	// ErrMalformed reports a value no encoder produces: a non-canonical or
	// overflowing varint, an out-of-range integer, a bool other than 0/1, a
	// map whose keys are not strictly increasing.
	ErrMalformed = errors.New("transport: malformed input")
	// ErrBadClass reports a class byte outside the Class enum.
	ErrBadClass = errors.New("transport: unknown message class")
	// ErrNoCodec reports a payload type with no registered codec (encoding)
	// or a tag no codec claims (decoding).
	ErrNoCodec = errors.New("transport: no payload codec")
)

// Reader is a bounds-checked cursor over one encoded value. The first
// failure sticks: every later read returns the zero value, so a decoder
// reads its fields straight through and checks Err (or End) once.
type Reader struct {
	b   []byte
	i   int
	err error
}

// NewReader returns a Reader over b. Blob results alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Rem returns the number of unread bytes.
func (r *Reader) Rem() int { return len(r.b) - r.i }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// End returns the first failure, or ErrTrailing if bytes remain unread.
func (r *Reader) End() error {
	if r.err == nil && r.i != len(r.b) {
		r.err = ErrTrailing
	}
	return r.err
}

// Invalid records a malformed-value failure naming what was wrong, unless
// an earlier failure is already recorded.
func (r *Reader) Invalid(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.i >= len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Invalid("bool")
	}
	return c == 1
}

// Uvarint reads a minimally encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.i < len(r.b) && r.b[r.i] < 0x80 {
		c := r.b[r.i]
		r.i++
		return uint64(c)
	}
	v, n := binary.Uvarint(r.b[r.i:])
	switch {
	case n == 0:
		r.err = ErrTruncated
		return 0
	case n < 0:
		r.Invalid("varint overflows 64 bits")
		return 0
	case r.b[r.i+n-1] == 0:
		r.Invalid("non-minimal varint")
		return 0
	}
	r.i += n
	return v
}

// Uint32 reads an unsigned varint that must fit in 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > 1<<32-1 {
		r.Invalid("value exceeds 32 bits")
		return 0
	}
	return uint32(v)
}

// Varint reads a minimally encoded zigzag varint.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Int reads a zigzag varint that must fit in an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Invalid("value exceeds int")
		return 0
	}
	return int(v)
}

// NodeID reads a node identity, encoded as the uvarint of its 32-bit
// pattern (so addr.NoNode is 0xFFFFFFFF).
func (r *Reader) NodeID() addr.NodeID { return addr.NodeID(int32(r.Uint32())) }

// Class reads a class byte, which must name a defined Class.
func (r *Reader) Class() Class {
	c := r.Byte()
	cl := Class(c)
	if !cl.Valid() {
		if r.err == nil {
			r.err = fmt.Errorf("%w: %d", ErrBadClass, c)
		}
		return ClassApp
	}
	return cl
}

// Count reads an element count and checks it against the bytes left, given
// that every element takes at least minBytes (≥ 1) of them. A count that
// passes can size an allocation: it never exceeds what the input holds.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(r.Rem()/minBytes) {
		if r.err == nil {
			r.err = ErrTruncated
		}
		return 0
	}
	return int(n)
}

// Blob reads a uvarint length and that many raw bytes, aliasing the input;
// an empty blob is nil.
func (r *Reader) Blob() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	b := r.b[r.i : r.i+n]
	r.i += n
	return b
}

// Str reads a uvarint length and that many bytes as a string.
func (r *Reader) Str() string { return string(r.Blob()) }

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendNodeID appends n as the uvarint of its 32-bit pattern.
func AppendNodeID(dst []byte, n addr.NodeID) []byte {
	return binary.AppendUvarint(dst, uint64(uint32(n)))
}

// AppendClass appends c as one byte.
func AppendClass(dst []byte, c Class) []byte { return append(dst, byte(c)) }

// AppendBlob appends a uvarint length and the bytes of b.
func AppendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends a uvarint length and the bytes of s.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendSlice appends a count and then every element of s.
func AppendSlice[T any](dst []byte, s []T, elem func([]byte, T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = elem(dst, v)
	}
	return dst
}

// ReadSlice reads what AppendSlice wrote; every element takes at least
// minBytes of input. An empty slice is nil.
func ReadSlice[T any](r *Reader, minBytes int, elem func(*Reader) T) []T {
	n := r.Count(minBytes)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		if s[i] = elem(r); r.err != nil {
			return nil
		}
	}
	return s
}

// AppendUvarints appends a count and every element as a uvarint.
func AppendUvarints[T ~uint64 | ~uint32](dst []byte, s []T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// ReadUvarints reads what AppendUvarints wrote, checking every element
// against the width of T. An empty slice is nil.
func ReadUvarints[T ~uint64 | ~uint32](r *Reader) []T {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		v := r.Uvarint()
		if s[i] = T(v); uint64(s[i]) != v {
			r.Invalid("element exceeds its width")
		}
		if r.err != nil {
			return nil
		}
	}
	return s
}

// AppendMap appends a count and the entries of m in increasing key order,
// so equal maps encode to equal bytes.
func AppendMap[K cmp.Ordered, V any](dst []byte, m map[K]V, key func([]byte, K) []byte, val func([]byte, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = val(key(dst, k), m[k])
	}
	return dst
}

// ReadMap reads what AppendMap wrote; every entry takes at least minBytes of
// input, and keys must be strictly increasing. An empty map is nil.
func ReadMap[K cmp.Ordered, V any](r *Reader, minBytes int, key func(*Reader) K, val func(*Reader) V) map[K]V {
	n := r.Count(minBytes)
	if n == 0 {
		return nil
	}
	m := make(map[K]V, n)
	var prev K
	for i := 0; i < n; i++ {
		k := key(r)
		if i > 0 && k <= prev {
			r.Invalid("map keys out of order")
		}
		if m[k] = val(r); r.err != nil {
			return nil
		}
		prev = k
	}
	return m
}

// payloadCodec is one registered payload type.
type payloadCodec struct {
	tag    byte
	typ    reflect.Type
	append func([]byte, any) []byte
	decode func(*Reader) any
}

// The registry is written only by init functions, so lookups need no lock.
var (
	codecByTag  [256]*payloadCodec
	codecByType = map[reflect.Type]*payloadCodec{}
)

// RegisterPayload installs the wire codec of payload type T under tag. Call
// it from an init function; a zero tag, or a tag or type registered twice,
// panics.
func RegisterPayload[T any](tag byte, appendFn func([]byte, T) []byte, decodeFn func(*Reader) T) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if tag == 0 {
		panic(fmt.Sprintf("transport: payload %v registered with tag 0", typ))
	}
	if prev := codecByTag[tag]; prev != nil {
		panic(fmt.Sprintf("transport: payload tag %d registered for both %v and %v", tag, prev.typ, typ))
	}
	if _, dup := codecByType[typ]; dup {
		panic(fmt.Sprintf("transport: payload %v registered twice", typ))
	}
	c := &payloadCodec{
		tag:    tag,
		typ:    typ,
		append: func(dst []byte, v any) []byte { return appendFn(dst, v.(T)) },
		decode: func(r *Reader) any { return decodeFn(r) },
	}
	codecByTag[tag] = c
	codecByType[typ] = c
}

// PayloadTypes returns every registered payload type in tag order.
func PayloadTypes() []reflect.Type {
	var out []reflect.Type
	for _, c := range codecByTag {
		if c != nil {
			out = append(out, c.typ)
		}
	}
	return out
}

// AppendPayload appends v's tag and body to dst; a nil payload appends
// nothing.
func AppendPayload(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	c := codecByType[reflect.TypeOf(v)]
	if c == nil {
		return dst, fmt.Errorf("%w for %T", ErrNoCodec, v)
	}
	return c.append(append(dst, c.tag), v), nil
}

// DecodePayload decodes one AppendPayload encoding, which must be consumed
// exactly; empty input is a nil payload.
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	c := codecByTag[b[0]]
	if c == nil {
		return nil, fmt.Errorf("%w: tag %d", ErrNoCodec, b[0])
	}
	r := NewReader(b[1:])
	v := c.decode(&r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("transport: decode %v payload: %w", c.typ, err)
	}
	return v, nil
}
