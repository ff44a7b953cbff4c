// Package spe is the stream processing engine substrate: a Storm-like
// operator runtime executing a continuous query's DAG with one goroutine
// per worker thread, bounded channels for back-pressure, shuffle/fields
// partitioning between stages, and in-band watermark control tuples.
//
// A topology has the shape the paper evaluates (Fig. 2): a single spout
// reading the input stream, optional stateless stages, one windowed
// stateful stage with configurable parallelism, and a sink collecting
// window results.
package spe

import (
	"hash/maphash"

	"spear/internal/col"
	"spear/internal/tuple"
)

// Message is the unit of transfer between workers: either a data tuple
// or a control tuple — a watermark (§2: "control-tuples carrying a
// timestamp ... sent by SPE components periodically") or a checkpoint
// barrier (Chandy-Lamport-style, injected by the spout; a windowed
// worker snapshots when it arrives).
//
// An in-process columnar run additionally ships whole column batches:
// Cols, when non-nil, carries a pooled ColumnBatch holding an entire
// micro-batch of data tuples already in column format, built by the
// spout's fused chain. Cols messages never cross the wire (under a
// fabric the chain ships rows), and the receiving window worker owns
// the batch — it must recycle it with col.Put after ingest.
type Message struct {
	Tuple     tuple.Tuple
	Cols      *col.ColumnBatch
	WM        int64
	Sender    int // upstream worker index, for watermark/barrier merging
	IsWM      bool
	IsBarrier bool
	Barrier   uint64 // checkpoint id; meaningful when IsBarrier
}

// Partitioner decides which of n downstream workers receives a tuple —
// the "propagation of tuples between execution stages ... using
// partitioning techniques" of §2. Partitioners are per-sender (not
// shared), so they need no locking.
type Partitioner interface {
	Route(t tuple.Tuple, n int) int
}

// Shuffle distributes tuples round-robin, the default for scalar
// operations where any worker may process any tuple.
type Shuffle struct{ next int }

// NewShuffle returns a round-robin partitioner.
func NewShuffle() *Shuffle { return &Shuffle{} }

// NewShuffleAt returns a round-robin partitioner whose phase starts at
// start. Checkpoint recovery uses it so the spout routes replayed tuple
// number k to the same worker the crashed run sent it to: the phase of
// a fresh shuffle after k tuples is simply k.
func NewShuffleAt(start int) *Shuffle {
	if start < 0 {
		start = 0
	}
	return &Shuffle{next: start}
}

// Route implements Partitioner. The counter is kept bounded in [0, n):
// an unbounded increment would eventually overflow int, and a negative
// counter modulo n is negative in Go — an out-of-range worker index.
func (s *Shuffle) Route(_ tuple.Tuple, n int) int {
	if s.next < 0 {
		// Defensive: a counter constructed (or wrapped) negative must
		// never index out of bounds.
		s.next = 0
	}
	i := s.next % n
	s.next = i + 1
	if s.next >= n {
		s.next = 0
	}
	return i
}

// Fields routes tuples by hashing a grouping key, so all tuples of a
// group meet at the same worker — required by grouped stateful
// operations.
type Fields struct {
	key  tuple.KeyExtractor
	seed maphash.Seed
}

// NewFields returns a hash partitioner over key. All senders of a stage
// must share the same seed; construct once and reuse.
func NewFields(key tuple.KeyExtractor, seed maphash.Seed) *Fields {
	if key == nil {
		panic("spe: Fields partitioner needs a key extractor")
	}
	return &Fields{key: key, seed: seed}
}

// Route implements Partitioner.
func (f *Fields) Route(t tuple.Tuple, n int) int {
	return int(maphash.String(f.seed, f.key(t)) % uint64(n))
}

// SeededFields routes tuples by a deterministic seeded hash of the
// grouping key (FNV-1a with a SplitMix64-style finalizer). Unlike
// Fields, whose maphash seed is randomized per process, SeededFields
// routes every group to the same worker across restarts — required for
// checkpoint recovery, where replayed tuples must reach the worker
// whose restored state already holds their group.
type SeededFields struct {
	key  tuple.KeyExtractor
	seed uint64
}

// NewSeededFields returns a deterministic hash partitioner over key.
func NewSeededFields(key tuple.KeyExtractor, seed int64) *SeededFields {
	if key == nil {
		panic("spe: SeededFields partitioner needs a key extractor")
	}
	return &SeededFields{key: key, seed: uint64(seed)}
}

// Route implements Partitioner.
func (f *SeededFields) Route(t tuple.Tuple, n int) int {
	key := f.key(t)
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= f.seed * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return int(h % uint64(n))
}

// Global routes everything to worker 0 — used for single-worker sinks.
type Global struct{}

// Route implements Partitioner.
func (Global) Route(tuple.Tuple, int) int { return 0 }
