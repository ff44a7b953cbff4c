package spe

import (
	"fmt"

	"spear/internal/col"
	"spear/internal/core"
	"spear/internal/obs"
	"spear/internal/tuple"
	"spear/internal/watermark"
)

// winWorkerCfg is everything one windowed worker's loop needs. Run
// builds one per local worker; StartShard builds them for the global
// worker range a remote node hosts — the loop itself is identical, so
// distributed execution is bit-identical by construction.
type winWorkerCfg struct {
	name      string // stage name, for errors and telemetry
	wi        int    // global worker index (seeds, snapshot identity)
	senders   int    // upstream senders feeding in
	batchSize int
	columnar  bool // feed OnColumnBatch kernels when the manager has them
	hooks     *CheckpointHooks
	mgr       core.Manager
	in        chan []Message
	results   chan<- []SinkItem
	pool      *batchPool
	failed    *errOnce
	ins       *obs.Instruments
	wobs      *obs.WorkerObs
	trace     *obs.TraceRing
}

// runWinWorker drains one windowed worker's input to completion:
// tuple-batch ingest through the manager's fast path, watermark
// min-merge, barrier alignment with snapshot at the alignment point,
// and result emission in per-worker order. It returns when in closes.
func runWinWorker(c winWorkerCfg) {
	tracker := watermark.NewTracker(c.senders)
	var al *barrierAligner
	if c.hooks != nil {
		al = newBarrierAligner(c.senders, c.hooks.clock(), c.hooks.AlignStall)
	}
	mgr := c.mgr
	// Contiguous data tuples are drained through the manager's
	// OnTupleBatch fast path (asserted once, outside the loop);
	// managers without one fall back to the per-tuple shim.
	bm, hasBatch := mgr.(core.BatchManager)
	// Columnar lane: when the run is columnar and the manager has
	// OnColumnBatch kernels, each scratch run is converted into one
	// pooled column batch and ingested through them instead. The
	// batch buffer is worker-owned for the whole run and recycled at
	// exit; the manager only borrows it per call.
	var cm core.ColumnManager
	var cb *col.ColumnBatch
	if c.columnar {
		var hasCol bool
		if cm, hasCol = mgr.(core.ColumnManager); hasCol {
			cb = col.Get()
			defer col.Put(cb)
		}
	}
	// Watermark-driven read-ahead: managers backed by the async
	// spill plane expose PrefetchWatermark; after each watermark
	// round fires its windows, the hook warms the plane's cache
	// with the panes of the windows firing next, so their exact
	// fallbacks (if any) read memory instead of S.
	pf, hasPrefetch := mgr.(core.Prefetcher)
	scratch := make([]tuple.Tuple, 0, c.batchSize)
	var sinkBuf []SinkItem
	flushSink := func() {
		if len(sinkBuf) > 0 {
			c.results <- sinkBuf
			sinkBuf = nil
		}
	}
	emit := func(rs []core.Result) {
		if c.trace != nil {
			for _, r := range rs {
				if c.trace.SampleWindow(r.Start) {
					c.trace.Record(obs.TraceEvent{
						Kind: obs.TraceFire, Stage: c.name, Worker: c.wi,
						Ts: r.Start, WindowEnd: r.End,
						Mode: r.Mode.String(), Spilled: r.FetchedFromStore,
					})
				}
			}
		}
		for _, r := range rs {
			sinkBuf = append(sinkBuf, SinkItem{Worker: c.wi, Res: r})
		}
		if len(sinkBuf) >= c.batchSize {
			flushSink()
		}
	}
	// ingest drains the pending tuple run through the manager.
	// It runs before any control tuple is acted on (watermark,
	// snapshot) so the manager observes exactly the per-tuple
	// order.
	ingest := func() {
		if len(scratch) == 0 {
			return
		}
		if c.trace != nil {
			for _, t := range scratch {
				if c.trace.SampleTs(t.Ts) {
					c.trace.Record(obs.TraceEvent{
						Kind: obs.TraceAssign, Stage: c.name,
						Worker: c.wi, Ts: t.Ts,
					})
				}
			}
		}
		var rs []core.Result
		var err error
		switch {
		case cb != nil:
			cb.SetRows(scratch)
			rs, err = cm.OnColumnBatch(cb)
		case hasBatch:
			rs, err = bm.OnTupleBatch(scratch)
		default:
			rs, err = core.IngestBatch(mgr, scratch)
		}
		scratch = scratch[:0]
		if err != nil {
			c.failed.set(fmt.Errorf("spe: %s[%d]: %w", c.name, c.wi, err))
			return
		}
		emit(rs)
	}
	// ingestCols drains one spout-shipped column batch through the
	// manager — directly via the columnar kernel when the manager has
	// one, else through the row fallback over the batch's owned rows.
	// The worker owns the batch from the moment it arrives and recycles
	// it here, error or not.
	ingestCols := func(cb *col.ColumnBatch) {
		if c.trace != nil {
			for _, ts := range cb.Ts() {
				if c.trace.SampleTs(ts) {
					c.trace.Record(obs.TraceEvent{
						Kind: obs.TraceAssign, Stage: c.name,
						Worker: c.wi, Ts: ts,
					})
				}
			}
		}
		var rs []core.Result
		var err error
		switch {
		case cm != nil:
			rs, err = cm.OnColumnBatch(cb)
		case hasBatch:
			rs, err = bm.OnTupleBatch(cb.Rows())
		default:
			rs, err = core.IngestBatch(mgr, cb.Rows())
		}
		col.Put(cb)
		if err != nil {
			c.failed.set(fmt.Errorf("spe: %s[%d]: %w", c.name, c.wi, err))
			return
		}
		emit(rs)
	}
	// dead samples the failure flag once per batch, so the hot loop
	// avoids even the atomic load: data after a failure drains for at
	// most one batch before the worker goes quiet.
	dead := false
	process := func(msg Message) {
		if dead {
			if msg.Cols != nil {
				col.Put(msg.Cols) // still ours to recycle
			}
			return
		}
		if msg.Cols != nil {
			// Preserve arrival order against any pending row tuples
			// before the column batch's rows reach the manager.
			ingest()
			if c.failed.get() != nil {
				col.Put(msg.Cols)
				return
			}
			ingestCols(msg.Cols)
			return
		}
		if msg.IsWM {
			// Every tuple routed before this watermark must
			// reach the manager first.
			ingest()
			if c.failed.get() != nil {
				return
			}
			if wm, adv := tracker.Update(msg.Sender, msg.WM); adv {
				if c.wobs != nil {
					// Once per watermark round, never per tuple.
					c.wobs.SetWatermark(wm)
				}
				rs, err := mgr.OnWatermark(wm)
				if err != nil {
					c.failed.set(fmt.Errorf("spe: %s[%d]: %w", c.name, c.wi, err))
					return
				}
				emit(rs)
				if hasPrefetch {
					pf.PrefetchWatermark(wm)
				}
			}
			return
		}
		scratch = append(scratch, msg.Tuple)
		if len(scratch) >= c.batchSize {
			ingest()
		}
	}
	for batch := range c.in {
		dead = c.failed.get() != nil
		if c.ins != nil {
			// One lock-free histogram fold per received batch.
			c.ins.Batches.Record(len(batch))
		}
		for _, msg := range batch {
			if msg.IsBarrier && c.hooks != nil && c.hooks.BarrierSeen != nil {
				if err := c.hooks.BarrierSeen(msg.Barrier, c.wi, msg.Sender); err != nil {
					c.failed.set(fmt.Errorf("spe: %s[%d]: %w", c.name, c.wi, err))
				}
			}
			if al == nil || (!al.Aligning() && !msg.IsBarrier) {
				process(msg)
				continue
			}
			events, err := al.Observe(msg)
			if err != nil {
				c.failed.set(fmt.Errorf("spe: %s[%d]: %w", c.name, c.wi, err))
				continue
			}
			for _, ev := range events {
				if ev.snapshot {
					// The snapshot must cover every pre-barrier
					// tuple, including the ones still in the
					// scratch run.
					ingest()
					if c.failed.get() != nil {
						continue
					}
					if c.hooks.Snapshot != nil {
						if err := c.hooks.Snapshot(ev.id, c.wi, mgr); err != nil {
							c.failed.set(fmt.Errorf("spe: snapshot %d at %s[%d]: %w", ev.id, c.name, c.wi, err))
						}
					}
					continue
				}
				process(ev.msg)
			}
		}
		c.pool.put(batch)
		// Results fired this batch (watermark rounds, count-window
		// closes) ship now rather than pooling until the stream ends:
		// one send per producing batch keeps sink latency bounded by
		// a single input batch instead of the whole run.
		flushSink()
	}
	ingest()
	flushSink()
}
