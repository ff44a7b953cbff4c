package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// legacyDecode is the per-tuple decoder the codec had before Decoder:
// one values slice per tuple, one string copy per string value. It is
// the differential oracle for Decoder's accept/reject set and values.
func legacyDecode(b []byte) (Tuple, int, error) {
	if len(b) < 8 {
		return Tuple{}, 0, ErrCorrupt
	}
	t := Tuple{Ts: int64(binary.LittleEndian.Uint64(b))}
	pos := 8
	n, sz := binary.Uvarint(b[pos:])
	if sz <= 0 {
		return Tuple{}, 0, ErrCorrupt
	}
	pos += sz
	if n > uint64(len(b)) {
		return Tuple{}, 0, ErrCorrupt
	}
	if n > 0 {
		t.Vals = make([]Value, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(b[pos:])
		if err != nil {
			return Tuple{}, 0, err
		}
		t.Vals = append(t.Vals, v)
		pos += used
	}
	return t, pos, nil
}

func legacyDecodeBatch(b []byte) ([]Tuple, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)) {
		return nil, ErrCorrupt
	}
	pos := sz
	out := make([]Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		t, used, err := legacyDecode(b[pos:])
		if err != nil {
			return nil, err
		}
		pos += used
		out = append(out, t)
	}
	if pos != len(b) {
		return nil, ErrCorrupt
	}
	return out, nil
}

// readFuzzCorpus loads the []byte entries of a checked-in fuzz corpus
// directory ("go test fuzz v1" files).
func readFuzzCorpus(t *testing.T, dir string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus %s: %v (%d files)", dir, err, len(files))
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n")[1:] {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			lit := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			s, err := strconv.Unquote(lit)
			if err != nil {
				t.Fatalf("%s: %q: %v", f, line, err)
			}
			out = append(out, []byte(s))
		}
	}
	return out
}

// tupleCodecCorpus is FuzzTupleCodec's seed set plus its checked-in
// corpus.
func tupleCodecCorpus(t *testing.T) [][]byte {
	in := readFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzTupleCodec"))
	for _, ts := range fuzzSeedTuples() {
		in = append(in, EncodeBatch(ts))
		for _, tup := range ts {
			in = append(in, AppendEncode(nil, tup))
		}
	}
	return append(in, nil, []byte{0x01}, hugeStringLenInput())
}

func valsEqual(a, b []Value) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestDecoderDifferential runs the tuple codec's fuzz corpus — and
// every suffix of each entry, for truncations at each offset — through
// the legacy per-tuple decoder and through Decoder (zero value and one
// interning decoder shared across all inputs, so state leaking between
// decodes would show): both must accept and reject the same inputs,
// consume the same bytes, and yield Equal values.
func TestDecoderDifferential(t *testing.T) {
	shared := NewDecoder()
	for ci, b := range tupleCodecCorpus(t) {
		for cut := 0; cut <= len(b); cut++ {
			in := b[:cut]
			want, wn, werr := legacyDecode(in)
			for name, dec := range map[string]func([]byte) (Tuple, int, error){
				"Decode": Decode, "shared": shared.Decode,
			} {
				got, n, err := dec(in)
				if (err == nil) != (werr == nil) || n != wn || (err != nil && !errors.Is(err, ErrCorrupt)) {
					t.Fatalf("entry %d cut %d %s: got (%d, %v), legacy (%d, %v)", ci, cut, name, n, err, wn, werr)
				}
				if err == nil && (got.Ts != want.Ts || !valsEqual(got.Vals, want.Vals)) {
					t.Fatalf("entry %d cut %d %s: %v, legacy %v", ci, cut, name, got, want)
				}
			}
			wantB, werr := legacyDecodeBatch(in)
			gotB, err := DecodeBatch(in)
			if (err == nil) != (werr == nil) || len(gotB) != len(wantB) {
				t.Fatalf("entry %d cut %d batch: got (%d, %v), legacy (%d, %v)", ci, cut, len(gotB), err, len(wantB), werr)
			}
			for i := range gotB {
				if gotB[i].Ts != wantB[i].Ts || !valsEqual(gotB[i].Vals, wantB[i].Vals) {
					t.Fatalf("entry %d cut %d batch tuple %d: %v, legacy %v", ci, cut, i, gotB[i], wantB[i])
				}
			}
		}
	}
}

// TestDecoderArenaIsolation pins the arena's aliasing contract: the
// tuples of one batch share an arena, yet appending to one tuple's
// values must not overwrite its neighbour's, and decoded strings —
// interned or copied — must survive the input buffer being reused.
func TestDecoderArenaIsolation(t *testing.T) {
	long := strings.Repeat("x", internMaxLen+1)
	in := []Tuple{
		New(1, Int(10), String_("sc0")),
		New(2, Int(20), String_(long)),
		New(3, Int(30), String_("sc1")),
	}
	buf := EncodeBatch(in)
	out, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder()
	d.Batch(len(in))
	var interned []Tuple
	for pos := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(len(in))); pos < len(buf); {
		tup, n, err := d.Decode(buf[pos:])
		if err != nil {
			t.Fatal(err)
		}
		interned = append(interned, tup)
		pos += n
	}
	for name, got := range map[string][]Tuple{"DecodeBatch": out, "interning": interned} {
		if cap(got[0].Vals) != len(got[0].Vals) {
			t.Fatalf("%s: tuple 0 values are not capacity-clipped (cap %d)", name, cap(got[0].Vals))
		}
		got[0].Vals = append(got[0].Vals, Int(-1), Int(-2))
		if !valsEqual(got[1].Vals, in[1].Vals) {
			t.Fatalf("%s: append to tuple 0 overwrote tuple 1: %v", name, got[1])
		}
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	for name, got := range map[string][]Tuple{"DecodeBatch": out, "interning": interned} {
		for i := range in {
			if !valsEqual(got[i].Vals[:2], in[i].Vals) {
				t.Fatalf("%s: tuple %d changed with its input buffer: %v, want %v", name, i, got[i], in[i])
			}
		}
	}
}

// TestInternTableBounded feeds thousands of distinct short strings and
// long strings through one interning decoder: the table must stay
// within its slot count and per-string length cap, and a repeated key
// must come back as the table's own string (no fresh copy).
func TestInternTableBounded(t *testing.T) {
	d := NewDecoder()
	for i := 0; i < 5000; i++ {
		s := fmt.Sprintf("key-%d", i)
		if i%5 == 0 {
			s = strings.Repeat(s, 20) // beyond internMaxLen: copied, never interned
		}
		tup, _, err := d.Decode(AppendEncode(nil, New(int64(i), String_(s))))
		if err != nil || tup.Vals[0].AsString() != s {
			t.Fatalf("decode %q: %v %v", s, tup, err)
		}
	}
	used, bytes := 0, 0
	for _, s := range d.strs {
		if len(s) > internMaxLen {
			t.Fatalf("interned %d-byte string, cap %d", len(s), internMaxLen)
		}
		if s != "" {
			used++
			bytes += len(s)
		}
	}
	if used > internSlots || bytes > internSlots*internMaxLen {
		t.Fatalf("intern table holds %d strings / %d bytes, bounds %d / %d", used, bytes, internSlots, internSlots*internMaxLen)
	}
	enc := AppendEncode(nil, New(0, String_("sc2")))
	a, _, _ := d.Decode(enc)
	b, _, _ := d.Decode(enc)
	if unsafe.StringData(a.Vals[0].AsString()) != unsafe.StringData(b.Vals[0].AsString()) {
		t.Fatal("a repeated short key was copied, not interned")
	}
}
