package tuple

import "encoding/binary"

// Decoder is the one value-decoding loop behind every reader of the
// binary codec: Decode and DecodeBatch, the transport's batch frames,
// and the spill plane's chunks. It carves the values of a batch out of
// one arena instead of allocating a slice per tuple, and can intern
// short strings.
//
// Each decoded tuple's Vals is a capacity-clipped window of the arena
// (vals[lo:hi:hi]), so an append to one tuple's values reallocates
// instead of overwriting its neighbour's. The arena is never reused
// once carved: decoded tuples may be retained indefinitely (window
// buffers, reservoirs), and a retained tuple keeps its batch's arena
// alive.
//
// The zero Decoder is ready to use and copies every string out of the
// input. NewDecoder returns one that interns strings of at most
// internMaxLen bytes through a fixed-size table, so a stream of
// repeated keys ("sc0".."sc3") costs no allocation per value. Interned
// strings are ordinary Go strings: they never alias the input buffer,
// which the caller may overwrite once a decode returns.
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	arena []Value
	left  int // tuples of the current batch not yet decoded
	strs  *internTable
}

// NewDecoder returns a Decoder that interns short strings.
func NewDecoder() *Decoder { return &Decoder{strs: new(internTable)} }

// Batch announces a batch of n tuples. The tuples decoded next share
// one fresh arena sized for the whole batch from the first tuple's
// value count; a later tuple with more values than that estimate opens
// another arena.
func (d *Decoder) Batch(n int) { d.arena, d.left = nil, n }

// Decode reads one tuple (the AppendEncode format) from b and returns
// it together with the number of bytes consumed.
func (d *Decoder) Decode(b []byte) (Tuple, int, error) {
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
	vals, used, err := d.Values(b[pos:], n)
	if err != nil {
		return Tuple{}, 0, err
	}
	t.Vals = vals
	return t, pos + used, nil
}

// Values reads n values (AppendValue format) from b into the arena and
// returns them together with the number of bytes consumed. It counts as
// one tuple of the current batch; n == 0 yields nil values. A count
// above len(b) is rejected before anything is allocated.
func (d *Decoder) Values(b []byte, n uint64) ([]Value, int, error) {
	tuples := 1
	if d.left > 0 {
		tuples = d.left
		d.left--
	}
	if n > uint64(len(b)) {
		return nil, 0, ErrCorrupt
	}
	if n == 0 {
		return nil, 0, nil
	}
	vals := d.carve(int(n), tuples, len(b))
	pos := 0
	for i := range vals {
		v, used, err := decodeValue(b[pos:], d.strs)
		if err != nil {
			return nil, 0, err
		}
		vals[i] = v
		pos += used
	}
	return vals, pos, nil
}

// carve returns the next n arena slots, capacity-clipped. A fresh arena
// holds n values for each of the batch's remaining tuples, bounded by
// what the remaining input can encode (two bytes per value at least),
// so a hostile count cannot size it beyond the input.
func (d *Decoder) carve(n, tuples, remaining int) []Value {
	if cap(d.arena)-len(d.arena) < n {
		size := remaining / 2
		if tuples <= size/n {
			size = n * tuples
		}
		if size < n {
			size = n
		}
		d.arena = make([]Value, 0, size)
	}
	lo := len(d.arena)
	d.arena = d.arena[:lo+n]
	return d.arena[lo : lo+n : lo+n]
}

// Intern table bounds: a direct-mapped table of internSlots strings of
// at most internMaxLen bytes each, so it never holds more than
// internSlots*internMaxLen bytes of string data however many distinct
// strings pass through. Longer strings are copied, not interned.
const (
	internSlots  = 256
	internMaxLen = 32
)

// internTable maps a string's FNV-1a hash to one slot; a miss replaces
// the slot's string. A nil table interns nothing.
type internTable [internSlots]string

// str returns b as a string, from the table when b is short enough.
func (t *internTable) str(b []byte) string {
	if t == nil || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	slot := &t[h%internSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}
