package spill

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spear/internal/tuple"
)

// FuzzChunkCodec fuzzes DecodeChunk with arbitrary bytes, alongside the
// checked-in corpus under testdata/fuzz/FuzzChunkCodec:
//
//  1. DecodeChunk must never panic or balloon memory, whatever the
//     input (the count and value-count sanity bounds, the flate
//     LimitReader, and tuple.Decoder's wrap-safe length checks are
//     the load-bearing pieces).
//  2. Any successful decode must round-trip: re-encoding the decoded
//     chunk at level 0 and decoding again yields the same tuples.
func FuzzChunkCodec(f *testing.F) {
	seeds := [][]tuple.Tuple{
		{},
		{tuple.New(0)},
		{tuple.New(-9e18, tuple.Float(math.Inf(1)), tuple.Float(math.NaN()))},
		{tuple.New(5, tuple.Int(-1), tuple.String_("αβγ\x00\xff"), tuple.Bool(true))},
		{tuple.New(100), tuple.New(50), tuple.New(200)}, // negative deltas
		mkChunk(1<<40, 64),
	}
	for _, ts := range seeds {
		for _, level := range []int{0, 6} {
			enc, err := EncodeChunk(ts, level)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	// Adversarial seeds: headers with wild payloads, huge declared
	// counts, flate garbage.
	f.Add([]byte{})
	f.Add([]byte{chunkMagic0, chunkMagic1, chunkVersion, 0})
	f.Add([]byte{chunkMagic0, chunkMagic1, chunkVersion, flagCompressed, 0x12, 0x34})
	f.Add(append([]byte{chunkMagic0, chunkMagic1, chunkVersion, 0},
		bytes.Repeat([]byte{0xFF}, 16)...))

	f.Fuzz(func(t *testing.T, b []byte) {
		ts, err := DecodeChunk(b)
		if err != nil {
			return
		}
		enc, err := EncodeChunk(ts, 0)
		if err != nil {
			t.Fatalf("re-encode of decoded chunk failed: %v", err)
		}
		ts2, err := DecodeChunk(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if len(ts) != len(ts2) {
			t.Fatalf("round trip changed count: %d != %d", len(ts), len(ts2))
		}
		for i := range ts {
			if ts[i].Ts != ts2[i].Ts || len(ts[i].Vals) != len(ts2[i].Vals) {
				t.Fatalf("tuple %d round-trip mismatch: %v != %v", i, ts[i], ts2[i])
			}
			for j := range ts[i].Vals {
				// Compare encodings, not values: NaN != NaN under Equal
				// but its payload bits must survive the codec.
				a := tuple.AppendValue(nil, ts[i].Vals[j])
				c := tuple.AppendValue(nil, ts2[i].Vals[j])
				if !bytes.Equal(a, c) {
					t.Fatalf("tuple %d val %d round-trip mismatch", i, j)
				}
			}
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the checked-in corpus under
// testdata/fuzz/FuzzChunkCodec from the seed chunks above. Gated so it
// only runs when explicitly requested:
//
//	SPEAR_REGEN_CORPUS=1 go test ./internal/spill -run TestRegenerateFuzzCorpus
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("SPEAR_REGEN_CORPUS") == "" {
		t.Skip("set SPEAR_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzChunkCodec")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzChunkCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) {
		t.Helper()
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	enc := func(ts []tuple.Tuple, level int) []byte {
		t.Helper()
		b, err := EncodeChunk(ts, level)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	write("seed_empty", enc(nil, 0))
	write("seed_one", enc([]tuple.Tuple{tuple.New(0)}, 0))
	write("seed_kinds", enc([]tuple.Tuple{
		tuple.New(5, tuple.Int(-1), tuple.String_("αβγ\x00\xff"), tuple.Bool(true)),
		tuple.New(-9e18, tuple.Float(math.Inf(1)), tuple.Float(math.NaN())),
	}, 0))
	write("seed_unsorted", enc([]tuple.Tuple{tuple.New(100), tuple.New(50), tuple.New(200)}, 0))
	write("seed_compressed", enc(mkChunk(1<<40, 64), 6))
	write("seed_bad_flags", []byte{chunkMagic0, chunkMagic1, chunkVersion, 0x80, 0x00})
	write("seed_bad_deflate", []byte{chunkMagic0, chunkMagic1, chunkVersion, flagCompressed, 0x12, 0x34})
	write("seed_huge_count", append([]byte{chunkMagic0, chunkMagic1, chunkVersion, 0},
		bytes.Repeat([]byte{0xFF}, 9)...))
	write("seed_truncated", enc(mkChunk(0, 4), 0)[:10])
}
