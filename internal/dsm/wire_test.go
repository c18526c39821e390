package dsm

import (
	"errors"
	"reflect"
	"testing"

	"bmx/internal/transport"
)

// TestImageMaskMustCoverWords: a granted image is installed as one range,
// its words with their reference-map bits, so the decoder refuses an image
// whose mask words do not describe exactly its words, or whose word count is
// neither 0 nor its manifest's size.
func TestImageMaskMustCoverWords(t *testing.T) {
	image := func(size int, words int, refs ...uint64) acquireReply {
		img := ObjectImage{Manifest: Manifest{OID: 7, Addr: 0x1000_0000_0000, Size: size, Bunch: 1, Epoch: 2}, Refs: refs}
		for i := 0; i < words; i++ {
			img.Words = append(img.Words, uint64(100+i))
		}
		return acquireReply{Image: img, Granter: 1}
	}
	decode := func(p acquireReply) (any, error) {
		wire, err := transport.AppendPayload(nil, p)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return transport.DecodePayload(wire)
	}
	for _, tc := range []struct {
		name string
		p    acquireReply
	}{
		{"mask short of its words", image(3, 3)},
		{"mask longer than its words", image(3, 3, 1, 0)},
		{"mask bit past the last word", image(3, 3, 1<<3)},
		{"second mask word short of 70 words", image(70, 70, 1)},
		{"bit past the last of 70 words", image(70, 70, 1, 1<<6)},
		{"words but no size", image(0, 3, 1)},
		{"words short of the size", image(4, 3, 1)},
	} {
		if _, err := decode(tc.p); !errors.Is(err, transport.ErrMalformed) {
			t.Errorf("%s: decode error %v, want ErrMalformed", tc.name, err)
		}
	}
	for _, p := range []acquireReply{image(3, 3, 1<<2|1), image(70, 70, 1<<63|1, 1<<5|1), image(5, 0)} {
		got, err := decode(p)
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Errorf("image of %d words, mask %x: decoded %+v, %v", len(p.Image.Words), p.Image.Refs, got, err)
		}
	}
}
