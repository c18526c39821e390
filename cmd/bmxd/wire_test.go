package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"bmx/internal/dsm"
	"bmx/internal/transport"
)

// The bmxd binary links every package that registers a payload codec, so
// the whole wire vocabulary is tested here: each registered type round-trips
// through its codec to exactly what a simnet handler would have received,
// and the decoder survives arbitrary input.

// wireTypes names every payload type that can reach a TCP peer. A type that
// crosses the wire without a codec fails at send time; this list makes
// dropping a registration fail here first.
var wireTypes = []string{
	"int", "string", "[]uint64",
	"dsm.acquireReq", "dsm.acquireReply", "dsm.invalidateReq", "dsm.LocBatchMsg",
	"core.LocFlushMsg", "core.DeadNoticeMsg", "core.CopyOutReq", "core.CopyOutReply", "core.AddrChangeMsg",
	"ssp.ScionMsg", "ssp.TableMsg",
	"cluster.mapBunchReq", "cluster.mapBunchReply", "cluster.dirReq", "cluster.dirReply",
	"main.ctlMapReq", "main.ctlMutateReq", "main.ctlAck", "main.ctlStatsReply", "main.ctlHeatReply",
}

// fill selects which representative value sample builds.
type fill int

const (
	fillZero  fill = iota // the zero value: nil slices, maps and pointers
	fillEmpty             // empty non-nil slices and maps, pointers to empty values
	fillMax               // unsigned fields at their maximum, signed at -1 (addr.NoNode); two elements per slice and map
	fillMin               // unsigned fields at 1, signed at their minimum; two elements per slice and map
	fillSeq               // every scalar a different value, so no two fields can trade places unseen
	fills
)

func (f fill) String() string { return [...]string{"zero", "empty", "max", "min", "seq"}[f] }

var (
	classType = reflect.TypeOf(transport.ClassApp)
	modeType  = reflect.TypeOf(dsm.ModeInvalid)
	imageType = reflect.TypeOf(dsm.ObjectImage{})
)

// sampler builds representative values of one fill.
type sampler struct {
	t   testing.TB
	f   fill
	seq int // scalars built so far (fillSeq)
}

// sample builds a value of typ, filled as f says. Enumerations take their
// largest defined value: decoders reject the rest. An object image is
// fitted to what its decoder accepts (fitImage).
func sample(t testing.TB, typ reflect.Type, f fill) reflect.Value {
	return (&sampler{t: t, f: f}).value(typ)
}

func (s *sampler) value(typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	if s.f == fillZero {
		return v
	}
	switch typ {
	case classType:
		v.Set(reflect.ValueOf(transport.ClassGC))
		return v
	case modeType:
		v.Set(reflect.ValueOf(dsm.ModeWrite))
		return v
	}
	n := 2
	if s.f == fillEmpty {
		n = 0
	}
	k := s.seq
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr, reflect.String:
		s.seq++
	}
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(s.f != fillEmpty && (s.f != fillSeq || k%2 == 0))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		switch s.f {
		case fillMax:
			v.SetInt(-1)
		case fillMin:
			v.SetInt(math.MinInt64 >> (64 - typ.Bits()))
		case fillSeq:
			v.SetInt(int64(k+1) * int64(1-2*(k%2)))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		switch s.f {
		case fillMax:
			v.SetUint(math.MaxUint64 >> (64 - typ.Bits()))
		case fillMin:
			v.SetUint(1)
		case fillSeq:
			v.SetUint(uint64(k + 1))
		}
	case reflect.String:
		switch s.f {
		case fillMax, fillMin:
			v.SetString("gc.σ\x00")
		case fillSeq:
			v.SetString(fmt.Sprint("s", k))
		}
	case reflect.Slice:
		sl := reflect.MakeSlice(typ, n, n)
		for i := 0; i < n; i++ {
			sl.Index(i).Set(s.value(typ.Elem()))
		}
		v.Set(sl)
	case reflect.Map:
		m := reflect.MakeMapWithSize(typ, n)
		for i := 0; i < n; i++ {
			m.SetMapIndex(distinct(s.value(typ.Key()), i), s.value(typ.Elem()))
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(typ.Elem())
		p.Elem().Set(s.value(typ.Elem()))
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !v.Field(i).CanSet() {
				s.t.Fatalf("%v.%s is unexported: payload fields must be exported", typ, typ.Field(i).Name)
			}
			v.Field(i).Set(s.value(typ.Field(i).Type))
		}
	default:
		s.t.Fatalf("sample: no representative value for %v", typ)
	}
	if typ == imageType {
		fitImage(v.Addr().Interface().(*dsm.ObjectImage))
	}
	return v
}

// fitImage makes a sampled image one the decoder accepts: its size counts
// its words, and its mask has one word per 64 of them with no bit past the
// last.
func fitImage(img *dsm.ObjectImage) {
	n := len(img.Words)
	img.Size = n
	img.Refs = img.Refs[:(n+63)/64]
	if n%64 != 0 {
		img.Refs[n/64] &= 1<<(n%64) - 1
	}
}

// distinct makes the i-th map key differ from the others.
func distinct(k reflect.Value, i int) reflect.Value {
	switch k.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		k.SetInt(k.Int() + int64(i))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		k.SetUint(k.Uint() - uint64(i))
	case reflect.String:
		k.SetString(fmt.Sprint(k.String(), i))
	}
	return k
}

// delivered is what a handler receives for v over the wire: v itself, with
// every empty slice and map turned nil.
func delivered(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			return out
		}
		s := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			s.Index(i).Set(delivered(v.Index(i)))
		}
		out.Set(s)
	case reflect.Map:
		if v.Len() == 0 {
			return out
		}
		m := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			m.SetMapIndex(it.Key(), delivered(it.Value()))
		}
		out.Set(m)
	case reflect.Pointer:
		if v.IsNil() {
			return out
		}
		p := reflect.New(v.Type().Elem())
		p.Elem().Set(delivered(v.Elem()))
		out.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(delivered(v.Field(i)))
		}
	default:
		out.Set(v)
	}
	return out
}

// TestPayloadCodecsRoundTrip encodes and decodes every registered payload
// type in five shapes — zero (nil slices, a nil acquireReply.Intra), empty
// (empty slices and maps, pointers to empty values), max (max-width OIDs,
// addresses and counters, addr.NoNode for every node), min, and seq (no two
// scalars alike) — and checks
// that the handler would see exactly what simnet hands it, that re-encoding
// reproduces the bytes, and that every proper prefix fails to decode.
func TestPayloadCodecsRoundTrip(t *testing.T) {
	var names []string
	for _, typ := range transport.PayloadTypes() {
		names = append(names, typ.String())
		for f := fillZero; f < fills; f++ {
			v := sample(t, typ, f)
			wire, err := transport.AppendPayload(nil, v.Interface())
			if err != nil {
				t.Fatalf("%v/%v: encode: %v", typ, f, err)
			}
			got, err := transport.DecodePayload(wire)
			if err != nil {
				t.Fatalf("%v/%v: decode: %v", typ, f, err)
			}
			if want := delivered(v).Interface(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%v: round trip\n got %#v\nwant %#v", typ, f, got, want)
			}
			again, err := transport.AppendPayload(nil, got)
			if err != nil || !bytes.Equal(again, wire) {
				t.Fatalf("%v/%v: re-encode differs (%v):\n% x\n% x", typ, f, err, again, wire)
			}
			for cut := 1; cut < len(wire); cut++ {
				if _, err := transport.DecodePayload(wire[:cut]); err == nil {
					t.Fatalf("%v/%v: prefix %d/%d decoded", typ, f, cut, len(wire))
				}
			}
		}
	}
	slices.Sort(names)
	want := slices.Clone(wireTypes)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("registered payload types\n got %v\nwant %v", names, want)
	}
}

// TestPayloadCodecErrors pins the two failure paths: a type nobody
// registered does not encode, and an unknown tag does not decode.
func TestPayloadCodecErrors(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := transport.AppendPayload(nil, unregistered{}); err == nil {
		t.Fatal("unregistered payload type encoded")
	}
	for _, tag := range []byte{0, 255} {
		if _, err := transport.DecodePayload([]byte{tag}); err == nil {
			t.Fatalf("tag %d decoded", tag)
		}
	}
}

// FuzzDecodePayload feeds the payload decoders arbitrary bytes, seeded with
// one encoding of every registered tag in each shape: nothing may panic,
// and whatever decodes must re-encode to the same bytes — so no two
// encodings mean the same value, and no decoder drops input.
func FuzzDecodePayload(f *testing.F) {
	for _, typ := range transport.PayloadTypes() {
		for fl := fillZero; fl < fills; fl++ {
			wire, err := transport.AppendPayload(nil, sample(f, typ, fl).Interface())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(wire)
		}
		if typ.String() == "dsm.acquireReply" {
			// A grant of a 70-word object: its mask spans two words.
			reply := sample(f, typ, fillSeq)
			img := reply.FieldByName("Image").Addr().Interface().(*dsm.ObjectImage)
			img.Words = make([]uint64, 70)
			for i := range img.Words {
				img.Words[i] = uint64(i) << 40
			}
			img.Refs = []uint64{1 | 1<<63, 1 | 1<<5}
			img.Size = len(img.Words)
			wire, err := transport.AppendPayload(nil, reply.Interface())
			if err != nil {
				f.Fatal(err)
			}
			if _, err := transport.DecodePayload(wire); err != nil {
				f.Fatalf("70-word image seed: %v", err)
			}
			f.Add(wire)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := transport.DecodePayload(b)
		if err != nil {
			return
		}
		again, err := transport.AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("%T re-encodes differently:\n in % x\nout % x", v, b, again)
		}
	})
}
