package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"spear"
)

// releaseQuantum is how early the open-loop generator may release a
// tuple instead of sleeping until its due time: sleeping per tuple
// would put the generator's own timer wake-ups on the CPU metric.
const releaseQuantum = 200 * time.Microsecond

// feeder is the benchmark's source: it hands out the pre-generated
// tuples and notes the wall time of the pulls the latency metric needs.
// The engine pulls from a single goroutine.
type feeder struct {
	in      []spear.Tuple
	open    bool
	i       int
	closers []int       // raw indices whose pull closes a window
	ci      int         // next closer
	closeAt []time.Time // pull time of each closer (closed loop)
	first   time.Time   // first pull; the open loop's schedule origin
	end     time.Time   // the pull that found the stream exhausted
	slept   time.Duration

	// Traced passes only: how late each tuple was released (open loop).
	late []float64
}

func newFeeder(in []spear.Tuple, ref *reference, open, traced bool) *feeder {
	f := &feeder{in: in, open: open, closers: ref.closers}
	if !open {
		f.closeAt = make([]time.Time, len(ref.closers))
	}
	if open && traced {
		f.late = make([]float64, 0, len(in))
	}
	return f
}

func (f *feeder) next() (spear.Tuple, bool) {
	if f.i >= len(f.in) {
		if f.end.IsZero() {
			f.end = time.Now()
		}
		return spear.Tuple{}, false
	}
	if f.open {
		late := f.pace()
		if f.late != nil {
			f.late = append(f.late, float64(late)/1e6)
		}
	} else {
		if f.i == 0 {
			f.first = time.Now()
		}
		if f.ci < len(f.closers) && f.closers[f.ci] == f.i {
			f.closeAt[f.ci] = time.Now()
			f.ci++
		}
	}
	t := f.in[f.i]
	f.i++
	return t, true
}

// pace holds tuple i back until its due time (its timestamp after the
// first pull), and returns how late it is released.
func (f *feeder) pace() time.Duration {
	now := time.Now()
	if f.i == 0 {
		f.first = now
	}
	due := f.first.Add(time.Duration(f.in[f.i].Ts - f.in[0].Ts))
	if wait := due.Sub(now); wait > releaseQuantum {
		time.Sleep(wait)
		woke := time.Now()
		f.slept += woke.Sub(now)
		now = woke
	}
	if now.Before(due) {
		return 0
	}
	return now.Sub(due)
}

// due returns the time window slot s became closable: the pull of its
// closer (closed loop) or the closer's scheduled release (open loop).
func (f *feeder) due(ref *reference, s int) time.Time {
	c := ref.wins[s].closer
	if f.open {
		ts := ref.lastTs
		if c >= 0 {
			ts = f.in[c].Ts
		}
		return f.first.Add(time.Duration(ts - f.in[0].Ts))
	}
	if c < 0 {
		return f.end
	}
	// closers is ascending; find c's pull.
	lo, hi := 0, len(f.closers)
	for lo < hi {
		m := (lo + hi) / 2
		if f.closers[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return f.closeAt[lo]
}

// repOut is what one repetition measured.
type repOut struct {
	tuples     int
	setup      time.Duration // Run call (or shard start) → first pull
	busy       time.Duration // first pull → Run returns
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCPU      float64
	busyCPU    float64
	gcCycles   uint64
	peakLive   uint64 // largest live heap a GC cycle saw during the run
	verdict    verdict
	lat        []float64 // ms per expected window; +Inf when missing
	budgets    []int     // Result.Budget of every result
	layer      *layerRep // traced repetitions only
}

func sub0(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// runRep runs the workload's query once over in and judges its output.
// base is the live heap measured after the input was generated; the
// peak-heap metric counts what the engine holds above it.
func runRep(w *workload, in []spear.Tuple, ref *reference, qseed int64, tr *tracer, base uint64) (*repOut, error) {
	recs := make([]sinkRec, 0, ref.expected*w.par+16)
	var mu sync.Mutex
	sink := func(worker int, r spear.Result) {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if w.onResult != nil {
			w.onResult(r)
		}
		at := time.Now()
		mu.Lock()
		recs = append(recs, sinkRec{worker: worker, res: r, at: at})
		mu.Unlock()
		if tr != nil {
			tr.span(kSink, 0, uint64(r.Start), t0, 1)
		}
	}
	f := newFeeder(in, ref, w.open, tr != nil)
	q := w.build(qseed, tr).Source(spear.FromFunc(f.next))

	hw := watchHeap()
	before := readRuntime()
	t0 := time.Now()
	var lis net.Listener
	if w.tcp {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			hw.done()
			return nil, fmt.Errorf("listen: %w", err)
		}
		lis = l
	}
	var lr *layerRep
	if tr != nil {
		lr = tr.attach(q, w.tcp)
	}
	var errc chan error
	if w.tcp {
		shard := w.build(qseed, tr)
		l := lis
		if tr != nil {
			shard.MetricsInto(lr.reg)
			l = tr.wrapListener(l)
		}
		errc = make(chan error, 1)
		go func() { errc <- shard.ServeShard(l) }()
		q.Distribute(lis.Addr().String())
	}
	_, err := q.Run(sink)
	tEnd := time.Now()
	if errc != nil {
		if err != nil {
			lis.Close() // unblocks a shard still waiting for its source
		}
		if serr := <-errc; serr != nil && err == nil {
			err = fmt.Errorf("shard: %w", serr)
		}
	}
	after := readRuntime()
	peak := hw.done()
	if lr != nil {
		lr.finish(f)
	}
	if err != nil {
		return nil, err
	}
	v, err := ref.check(recs)
	if err != nil {
		return nil, err
	}
	out := &repOut{
		tuples:     len(in),
		setup:      f.first.Sub(t0),
		busy:       tEnd.Sub(f.first),
		cpu:        after.cpu - before.cpu,
		allocs:     after.allocs - before.allocs,
		allocBytes: after.allocBytes - before.allocBytes,
		gcCPU:      after.gcCPU - before.gcCPU,
		busyCPU:    after.busyCPU - before.busyCPU,
		gcCycles:   after.gcCycles - before.gcCycles,
		peakLive:   sub0(peak, base),
		verdict:    v,
		layer:      lr,
	}
	for s := range ref.wins {
		if ref.wins[s].n == 0 {
			continue
		}
		if v.last[s].IsZero() {
			out.lat = append(out.lat, inf)
			continue
		}
		out.lat = append(out.lat, float64(v.last[s].Sub(f.due(ref, s)))/1e6)
	}
	for i := range recs {
		out.budgets = append(out.budgets, recs[i].res.Budget)
	}
	return out, nil
}
