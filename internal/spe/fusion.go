package spe

import (
	"spear/internal/col"
	"spear/internal/tuple"
)

// fusedChain is operator fusion: the engine collapses the whole
// map→filter→…→route chain into this one structure driven directly by
// the spout goroutine, for every run — row or columnar, checkpointed
// or not, in process or under a fabric. A micro-batch of tuples is
// pushed through every stage in a single kernel invocation — one
// selection-vector pass per stage, no channel hop, no per-stage
// goroutines, and no materialization of filtered batches: dropped
// tuples just leave the selection vector.
//
// Survivors leave the chain in one of two lanes. The row lane sends
// each survivor as a Message through the batcher; it serves row runs
// and fabrics, whose wire codec carries rows. The column lane (a
// columnar run in process) gives each destination worker a pooled
// ColumnBatch the chain appends routed tuples into, shipped whole
// (batcher.sendCols) when it reaches the micro-batch size; the window
// worker ingests it directly through its OnColumnBatch kernel and
// recycles it.
//
// Semantics are a single-worker stage pipeline's: stages apply in
// order, a stage returning ok=false drops the tuple, and survivors are
// routed to the windowed stage through one partitioner instance in
// survivor order. routed counts them, so a checkpoint can record the
// round-robin phase. The caller must flush() before broadcasting any
// control tuple so that no buffered data — in the stage buffer or in a
// partially-filled lane — is overtaken by it.
type fusedChain struct {
	fns    []MapFunc
	out    *batcher
	part   Partitioner
	width  int
	size   int
	cols   bool // column lane; row lane otherwise
	routed int64
	buf    []tuple.Tuple
	sel    []int32
	lanes  []*col.ColumnBatch // per-destination in-progress column batches
}

func newFusedChain(stages []statelessStage, out *batcher, part Partitioner, batchSize int, cols bool) *fusedChain {
	f := &fusedChain{
		fns:   make([]MapFunc, len(stages)),
		out:   out,
		part:  part,
		width: len(out.outs),
		size:  batchSize,
		cols:  cols,
		buf:   make([]tuple.Tuple, 0, batchSize),
		sel:   make([]int32, 0, batchSize),
		lanes: make([]*col.ColumnBatch, len(out.outs)),
	}
	for i, s := range stages {
		f.fns[i] = s.fn
	}
	return f
}

// push buffers t, running the fused kernel when the batch fills.
func (f *fusedChain) push(t tuple.Tuple) {
	f.buf = append(f.buf, t)
	if len(f.buf) >= cap(f.buf) {
		f.run()
	}
}

// run drives the buffered batch through every stage and routes the
// survivors, shipping each column lane as it fills. Stage functions may
// rewrite the tuple in place in the batch buffer; the selection vector
// tracks which slots are still alive, compacting as filters drop
// tuples.
func (f *fusedChain) run() {
	if len(f.buf) == 0 {
		return
	}
	sel := f.sel[:0]
	for i := range f.buf {
		sel = append(sel, int32(i))
	}
	for _, fn := range f.fns {
		k := 0
		for _, si := range sel {
			if t, ok := fn(f.buf[si]); ok {
				f.buf[si] = t
				sel[k] = si
				k++
			}
		}
		sel = sel[:k]
	}
	f.sel = sel[:0]
	f.routed += int64(len(sel))
	if !f.cols {
		for _, si := range sel {
			t := f.buf[si]
			f.out.send(f.part.Route(t, f.width), Message{Tuple: t})
		}
	} else {
		for _, si := range sel {
			t := f.buf[si]
			d := f.part.Route(t, f.width)
			cb := f.lanes[d]
			if cb == nil {
				cb = col.Get()
				f.lanes[d] = cb
			}
			cb.AppendRow(t)
			if cb.Len() >= f.size {
				f.out.sendCols(d, cb)
				f.lanes[d] = nil
			}
		}
	}
	f.buf = f.buf[:0]
}

// flush drains everything buffered — the stage batch and every
// partially-filled lane — into the batcher. Control tuples (barriers,
// watermarks, end of stream) must not overtake buffered data, so the
// engine calls this before every broadcast.
func (f *fusedChain) flush() {
	f.run()
	for d, cb := range f.lanes {
		if cb != nil && cb.Len() > 0 {
			f.out.sendCols(d, cb)
			f.lanes[d] = nil
		}
	}
}
