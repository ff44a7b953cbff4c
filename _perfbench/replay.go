package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"spear"
	"spear/internal/agg"
	"spear/internal/col"
	"spear/internal/core"
	"spear/internal/storage"
	"spear/internal/transport"
	"spear/internal/tuple"
	"spear/internal/watermark"
	"spear/internal/window"
)

// replayBatch is the batch size the replay drivers feed, the engine's
// default micro-batch.
const replayBatch = 64

// codecTuples bounds the tuples the codec replays encode and decode.
const codecTuples = 256 << 10

// allocCounter reads the heap-allocation counter without allocating.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// replayOut holds the replay drivers' measurements.
type replayOut struct {
	stageCalls      [maxStages]int   // tuples reaching each Map stage
	stageNs         [maxStages]int64 // time inside each stage's closure
	tuples          int              // manager input tuples (stage survivors)
	ingestSelfNs    int64
	ingestAllocs    uint64
	colIngestSelfNs int64
	setRowsNs       int64
	fireAccelNs     float64
	fireAccelN      int
	fireExactNs     float64
	fireExactN      int

	codecTuples            int
	tupleEncNs, tupleDecNs int64
	frameEncNs, frameDecNs int64
	frameDecAllocs         uint64
}

// replayStages runs the workload's Map closures stage by stage over
// the input, timing each stage's loop, and returns the survivors: the
// tuples its windowed stage receives.
func replayStages(w *workload, in []spear.Tuple, out *replayOut) []spear.Tuple {
	rows := in
	for i, st := range w.stages {
		next := make([]spear.Tuple, 0, len(rows))
		t0 := time.Now()
		for _, t := range rows {
			if s, ok := st(t); ok {
				next = append(next, s)
			}
		}
		out.stageNs[i] = int64(time.Since(t0))
		out.stageCalls[i] = len(rows)
		rows = next
	}
	return rows
}

// newManager builds the workload's window manager with the core
// constructors, over a timed in-memory store.
func newManager(w *workload, tr *tracer, columnar bool) (core.Manager, error) {
	cfg := core.Config{
		Spec:               window.Spec{Domain: window.TimeDomain, Range: w.rangeNs, Slide: w.slideNs},
		Agg:                agg.Func{Op: agg.Mean},
		Value:              w.value,
		Epsilon:            w.eps,
		Confidence:         w.conf,
		BudgetTuples:       w.budget,
		KnownGroups:        w.knownGroups,
		Store:              tr.wrapStore(storage.NewMemStore()),
		Key:                "replay/" + w.name,
		Seed:               1,
		DisableIncremental: w.disableIncr,
		Columnar:           core.ColumnarSpec{Enabled: columnar, ValueField: w.valueField, KeyField: w.keyField},
	}
	if w.key != nil {
		cfg.KeyBy = w.key
		return core.NewGroupedManager(cfg)
	}
	return core.NewScalarManager(cfg)
}

// replayCore feeds rows to a fresh manager in 64-tuple batches, firing
// windows on the watermarks the engine's spout would emit, with a span
// around every ingest and fire call.
func replayCore(w *workload, rows []spear.Tuple, tr *tracer, columnar bool, out *replayOut) error {
	m, err := newManager(w, tr, columnar)
	if err != nil {
		return err
	}
	bm, _ := m.(core.BatchManager)
	cm, _ := m.(core.ColumnManager)
	if bm == nil || (columnar && cm == nil) {
		return fmt.Errorf("replay: %T lacks the batch entry points", m)
	}
	ac := newAllocCounter()
	var ingestIDs []uint32
	type fire struct {
		id           uint32
		accel, exact int
	}
	var fires []fire
	ingest := func(batch []spear.Tuple) error {
		if len(batch) == 0 {
			return nil
		}
		var cb *col.ColumnBatch
		if columnar {
			cb = col.Get()
			t0 := time.Now()
			cb.SetRows(batch)
			tr.span(kSetRows, 0, 0, t0, len(batch))
			out.setRowsNs += int64(time.Since(t0))
		}
		a0 := ac.read()
		id := tr.newID()
		tr.cur.Store(id)
		t0 := time.Now()
		var err error
		if columnar {
			_, err = cm.OnColumnBatch(cb)
		} else {
			_, err = bm.OnTupleBatch(batch)
		}
		kind := kIngest
		if columnar {
			kind = kColIngest
			col.Put(cb)
		}
		tr.spanID(id, kind, 0, 0, t0, len(batch))
		tr.cur.Store(0)
		if !columnar {
			out.ingestAllocs += ac.read() - a0
		}
		ingestIDs = append(ingestIDs, id)
		return err
	}
	fireAt := func(wm int64) error {
		id := tr.newID()
		tr.cur.Store(id)
		t0 := time.Now()
		rs, err := m.OnWatermark(wm)
		tr.spanID(id, kFire, 0, uint64(len(rs)), t0, len(rs))
		tr.cur.Store(0)
		f := fire{id: id}
		for _, r := range rs {
			if r.Mode.Accelerated() {
				f.accel++
			} else {
				f.exact++
			}
		}
		fires = append(fires, f)
		return err
	}
	gen := watermark.NewGenerator(w.slideNs, 0)
	batch := make([]spear.Tuple, 0, replayBatch)
	for _, t := range rows {
		if wm, emit := gen.Observe(t.Ts); emit {
			if err := ingest(batch); err != nil {
				return err
			}
			batch = batch[:0]
			if err := fireAt(wm); err != nil {
				return err
			}
		}
		batch = append(batch, t)
		if len(batch) == replayBatch {
			if err := ingest(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := ingest(batch); err != nil {
		return err
	}
	if err := fireAt(math.MaxInt64); err != nil {
		return err
	}

	// Self time: each span minus the store calls nested in it.
	self := tr.selfTimes()
	for _, id := range ingestIDs {
		if columnar {
			out.colIngestSelfNs += self[id]
		} else {
			out.ingestSelfNs += self[id]
		}
	}
	if !columnar {
		out.tuples = len(rows)
		for _, f := range fires {
			n := f.accel + f.exact
			if n == 0 {
				continue
			}
			per := float64(self[f.id]) / float64(n)
			out.fireAccelNs += per * float64(f.accel)
			out.fireAccelN += f.accel
			out.fireExactNs += per * float64(f.exact)
			out.fireExactN += f.exact
		}
	}
	return nil
}

// replayCodecs encodes and decodes rows with the tuple codec and the
// transport's batch frames, 64 tuples at a time.
func replayCodecs(rows []spear.Tuple, tr *tracer, out *replayOut) error {
	if len(rows) > codecTuples {
		rows = rows[:codecTuples]
	}
	out.codecTuples = len(rows)
	var enc, frames [][]byte
	buf := make([]byte, 0, 64<<10)
	for lo := 0; lo < len(rows); lo += replayBatch {
		batch := rows[lo:min(lo+replayBatch, len(rows))]
		t0 := time.Now()
		buf = buf[:0]
		for i := range batch {
			buf = tuple.AppendEncode(buf, batch[i])
		}
		tr.span(kTupleEnc, 0, uint64(lo), t0, len(batch))
		out.tupleEncNs += int64(time.Since(t0))
		enc = append(enc, append([]byte(nil), buf...))

		t0 = time.Now()
		buf = transport.AppendBatch(buf[:0], uint64(lo/replayBatch+1), 0, 0, batch)
		tr.span(kFrameEnc, 0, uint64(lo), t0, len(batch))
		out.frameEncNs += int64(time.Since(t0))
		frames = append(frames, append([]byte(nil), buf...))
	}
	for bi, b := range enc {
		t0 := time.Now()
		n := 0
		for pos := 0; pos < len(b); n++ {
			_, used, err := tuple.Decode(b[pos:])
			if err != nil {
				return fmt.Errorf("replay: tuple decode: %w", err)
			}
			pos += used
		}
		tr.span(kTupleDec, 0, uint64(bi*replayBatch), t0, n)
		out.tupleDecNs += int64(time.Since(t0))
	}
	ac := newAllocCounter()
	a0 := ac.read()
	for bi, b := range frames {
		t0 := time.Now()
		f, err := transport.DecodeFrame(b)
		if err != nil {
			return fmt.Errorf("replay: frame decode: %w", err)
		}
		tr.span(kFrameDec, 0, uint64(bi*replayBatch), t0, len(f.Tuples))
		out.frameDecNs += int64(time.Since(t0))
	}
	out.frameDecAllocs = ac.read() - a0
	return nil
}

// replay runs every replay driver over the workload's input.
func replay(w *workload, in []spear.Tuple, tr *tracer) (*replayOut, error) {
	out := &replayOut{}
	rows := replayStages(w, in, out)
	if err := replayCore(w, rows, tr, false, out); err != nil {
		return nil, err
	}
	if err := replayCore(w, rows, tr, true, out); err != nil {
		return nil, err
	}
	if err := replayCodecs(rows, tr, out); err != nil {
		return nil, err
	}
	return out, nil
}
