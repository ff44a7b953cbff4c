package checkpoint

import (
	"errors"
	"reflect"
	"testing"

	"spear/internal/tuple"
)

func sampleManifest() Manifest {
	return Manifest{
		ID:      7,
		Created: 1700000000123456789,
		Offset:  5000,
		Routed:  4321,
		Operators: []Operator{
			{Worker: 0, Key: "q/ckpt/s/0000000000000007/w0", Size: 128, Sum: 0xdeadbeef},
			{Worker: 1, Key: "q/ckpt/s/0000000000000007/w1", Size: 64, Sum: 42},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	enc := EncodeManifest(m)
	got, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip:\n in: %+v\nout: %+v", m, got)
	}
	// Determinism: identical manifests encode identically.
	if enc2 := EncodeManifest(sampleManifest()); string(enc) != string(enc2) {
		t.Fatal("encoding is not deterministic")
	}
	// Empty operator table is legal (a 0-worker manifest never occurs
	// in practice but the codec must not choke on boundaries).
	empty := Manifest{ID: 1, Created: 1, Offset: 0}
	got, err = DecodeManifest(EncodeManifest(empty))
	if err != nil || got.ID != 1 || len(got.Operators) != 0 {
		t.Fatalf("empty manifest round trip: %+v, %v", got, err)
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	valid := EncodeManifest(sampleManifest())

	cases := map[string][]byte{
		"empty":     {},
		"short":     valid[:8],
		"bad magic": append([]byte("XXXX"), valid[4:]...),
		"truncated": valid[:len(valid)-9],
	}
	// Every single-byte flip must be caught by the trailing checksum
	// (or a structural check); sample a few positions.
	for _, pos := range []int{4, 8, 20, len(valid) - 12} {
		b := append([]byte(nil), valid...)
		b[pos] ^= 0xff
		cases["flip@"+string(rune('0'+pos%10))] = b
	}
	for name, b := range cases {
		if _, err := DecodeManifest(b); err == nil {
			t.Errorf("%s: corrupt manifest accepted", name)
		} else if !errors.Is(err, tuple.ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}

	// Structural violations must fail even with a valid checksum.
	reencode := func(mut func(*Manifest)) []byte {
		m := sampleManifest()
		mut(&m)
		return EncodeManifest(m)
	}
	structural := map[string][]byte{
		"out-of-order workers": reencode(func(m *Manifest) {
			m.Operators[0].Worker, m.Operators[1].Worker = 1, 0
		}),
		"duplicate worker": reencode(func(m *Manifest) { m.Operators[1].Worker = 0 }),
		"negative offset":  reencode(func(m *Manifest) { m.Offset = -1 }),
		"negative routed":  reencode(func(m *Manifest) { m.Routed = -1 }),
		"routed > offset":  reencode(func(m *Manifest) { m.Routed = m.Offset + 1 }),
		"empty key":        reencode(func(m *Manifest) { m.Operators[0].Key = "" }),
	}
	for name, b := range structural {
		if _, err := DecodeManifest(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// encodeManifestV1 writes m in the version-1 layout, which has no
// routed count.
func encodeManifestV1(m Manifest) []byte {
	dst := []byte(manifestMagic)
	dst = tuple.AppendUvar(dst, 1)
	dst = tuple.AppendU64(dst, m.ID)
	dst = tuple.AppendI64(dst, m.Created)
	dst = tuple.AppendI64(dst, m.Offset)
	dst = tuple.AppendUvar(dst, uint64(len(m.Operators)))
	for _, op := range m.Operators {
		dst = tuple.AppendUvar(dst, uint64(op.Worker))
		dst = tuple.AppendStr(dst, op.Key)
		dst = tuple.AppendUvar(dst, uint64(op.Size))
		dst = tuple.AppendU64(dst, op.Sum)
	}
	return tuple.AppendU64(dst, BlobSum(dst))
}

// TestManifestV1DecodesRoutedAsOffset: a manifest written before the
// routed count existed still recovers, with the round-robin phase it
// implied (Routed = Offset).
func TestManifestV1DecodesRoutedAsOffset(t *testing.T) {
	want := sampleManifest()
	want.Routed = want.Offset
	got, err := DecodeManifest(encodeManifestV1(sampleManifest()))
	if err != nil {
		t.Fatalf("decode v1: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 decode:\n got %+v\nwant %+v", got, want)
	}
	// Re-encoding writes the current version, which keeps Routed.
	again, err := DecodeManifest(EncodeManifest(got))
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("v1 → v2 round trip: %+v, %v", again, err)
	}
}

func TestKeyParsers(t *testing.T) {
	ns := "q/ckpt"
	mk := manifestKey(ns, 0xabc)
	if id, ok := manifestID(ns, mk); !ok || id != 0xabc {
		t.Fatalf("manifestID(%q) = %d, %v", mk, id, ok)
	}
	sk := snapshotKey(ns, 0xabc, 3)
	if id, ok := snapshotID(ns, sk); !ok || id != 0xabc {
		t.Fatalf("snapshotID(%q) = %d, %v", sk, id, ok)
	}
	for _, bad := range []string{
		"", "q/ckpt/m/", "q/ckpt/m/xyz", "q/ckpt/m/000000000000000g",
		"other/m/0000000000000001", manifestKey(ns, 1) + "x",
	} {
		if _, ok := manifestID(ns, bad); ok {
			t.Errorf("manifestID accepted %q", bad)
		}
	}
	if _, ok := snapshotID(ns, "q/ckpt/s/0000000000000001"); ok {
		t.Error("snapshotID accepted key without worker segment")
	}
}
