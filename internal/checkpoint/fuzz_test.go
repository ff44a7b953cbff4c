package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzManifestCodec fuzzes DecodeManifest with arbitrary bytes:
//
//  1. It must never panic, whatever the input — manifests are read
//     back from a store that a crash may have left in any state.
//  2. Any successful decode must round-trip: re-encoding yields the
//     same bytes (EncodeManifest is a canonical form) and decoding
//     those yields an identical manifest.
func FuzzManifestCodec(f *testing.F) {
	seeds := []Manifest{
		{ID: 1, Created: 1, Offset: 0},
		sampleManifest(),
		{ID: ^uint64(0), Created: -1 << 62, Offset: 1 << 62, Routed: 1<<62 - 1, Operators: []Operator{
			{Worker: 0, Key: "k", Size: 0, Sum: 0},
		}},
	}
	for _, m := range seeds {
		f.Add(EncodeManifest(m))
	}
	// The version-1 layout, which decodes with Routed = Offset.
	f.Add(encodeManifestV1(sampleManifest()))
	// Adversarial: empty, bare magic, truncations, flipped checksum.
	valid := EncodeManifest(sampleManifest())
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		enc := EncodeManifest(m)
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded manifest failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest round-trip mismatch:\n in: %+v\nout: %+v", m, m2)
		}
		if enc2 := EncodeManifest(m2); !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
