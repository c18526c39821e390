package transport

import (
	"errors"
	"testing"
)

// TestReaderRejectsWhatNoEncoderWrites pins the Reader's totality rules:
// every input below is either cut short or something no Append function
// produces, and each must fail rather than decode to a value that would
// re-encode differently.
func TestReaderRejectsWhatNoEncoderWrites(t *testing.T) {
	uvarints := func(r *Reader) { ReadUvarints[uint64](r) }
	uvarintMap := func(r *Reader) { ReadMap(r, 2, (*Reader).Uvarint, (*Reader).Uvarint) }
	cases := []struct {
		name string
		in   []byte
		read func(*Reader)
		want error
	}{
		{"empty input", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"torn varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"non-minimal varint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, ErrMalformed},
		{"varint over 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }, ErrMalformed},
		{"uint32 overflow", AppendUvarint(nil, 1<<32), func(r *Reader) { r.Uint32() }, ErrMalformed},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }, ErrMalformed},
		{"class 2", []byte{2}, func(r *Reader) { r.Class() }, ErrBadClass},
		{"count beyond input", []byte{3, 1, 2}, uvarints, ErrTruncated},
		{"count beyond wide elements", []byte{2, 0, 0, 0, 0, 0}, func(r *Reader) {
			ReadSlice(r, 5, func(r *Reader) uint64 { return r.Uvarint() })
		}, ErrTruncated},
		{"blob beyond input", []byte{4, 'a', 'b'}, func(r *Reader) { r.Blob() }, ErrTruncated},
		{"map keys descending", []byte{2, 5, 0, 3, 0}, uvarintMap, ErrMalformed},
		{"map key repeated", []byte{2, 5, 0, 5, 0}, uvarintMap, ErrMalformed},
		{"trailing byte", []byte{1, 0}, func(r *Reader) { r.Uvarint() }, ErrTrailing},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(&r)
		if err := r.End(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// registeredOnce is a payload type the test binary registers at init, as
// production packages do.
type registeredOnce struct{}

func appendRegisteredOnce(dst []byte, _ registeredOnce) []byte { return dst }
func readRegisteredOnce(*Reader) registeredOnce                { return registeredOnce{} }

func init() { RegisterPayload(250, appendRegisteredOnce, readRegisteredOnce) }

// TestRegisterPayloadRefusesAmbiguity: a zero tag, a tag taken twice and a
// type registered twice would each make some blob mean two things.
func TestRegisterPayloadRefusesAmbiguity(t *testing.T) {
	type other struct{}
	appendOther := func(dst []byte, _ other) []byte { return dst }
	readOther := func(*Reader) other { return other{} }
	for name, register := range map[string]func(){
		"zero tag":   func() { RegisterPayload(0, appendOther, readOther) },
		"tag taken":  func() { RegisterPayload(250, appendOther, readOther) },
		"type twice": func() { RegisterPayload(251, appendRegisteredOnce, readRegisteredOnce) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RegisterPayload did not panic", name)
				}
			}()
			register()
		}()
	}
	wire, err := AppendPayload(nil, registeredOnce{})
	if err != nil || len(wire) != 1 || wire[0] != 250 {
		t.Fatalf("registeredOnce{} encodes as % x (%v), want its tag alone", wire, err)
	}
	if v, err := DecodePayload(wire); err != nil || v != (registeredOnce{}) {
		t.Fatalf("tag 250 decodes to %v (%v)", v, err)
	}
}
