package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spear"
	"spear/internal/metrics"
	"spear/internal/obs"
	"spear/internal/storage"
	"spear/internal/tuple"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kSink      spanKind = iota // the benchmark's sink, per window result
	kStore                     // SpillStore.Store
	kGet                       // SpillStore.Get
	kConnRead                  // shard-side net.Conn.Read
	kConnWrite                 // shard-side net.Conn.Write
	kIngest                    // replay: OnTupleBatch
	kColIngest                 // replay: OnColumnBatch
	kSetRows                   // replay: ColumnBatch.SetRows
	kFire                      // replay: OnWatermark
	kTupleEnc                  // replay: tuple.AppendEncode over a batch
	kTupleDec                  // replay: tuple.Decode over a batch
	kFrameEnc                  // replay: transport.AppendBatch
	kFrameDec                  // replay: transport.DecodeFrame
	numKinds
)

var kindNames = [numKinds]string{
	"spe.sink", "storage.store", "storage.get", "transport.read", "transport.write",
	"core.ingest", "core.col_ingest", "col.setrows", "core.fire",
	"tuple.encode", "tuple.decode", "transport.encode", "transport.decode",
}

// span is one timed call across a layer boundary. Spans of the replay
// drivers nest (a Store inside an OnTupleBatch names it as parent);
// spans the engine's own goroutines cause carry parent 0 and an arg
// naming what they belong to: the window start for sink calls, a hash
// of the pane key for store calls, the connection for reads and writes.
type span struct {
	id, parent uint32
	kind       spanKind
	arg        uint64
	start, end int64 // ns since the tracer's origin
	n          int64 // tuples or bytes moved
}

// maxSpans bounds the in-memory span log.
const maxSpans = 4 << 20

// maxStages bounds the Map stages a workload may have.
const maxStages = 8

// tracer records spans for one traced pass. Its methods are safe on a
// nil receiver, which stands for "untraced".
type tracer struct {
	origin  time.Time
	nextID  atomic.Uint32
	cur     atomic.Uint32 // parent for calls made inside a replay span
	conns   atomic.Uint32
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (tr *tracer) newID() uint32 { return tr.nextID.Add(1) }

// span records a call that started at t0 and ends now.
func (tr *tracer) span(k spanKind, parent uint32, arg uint64, t0 time.Time, n int) uint32 {
	id := tr.newID()
	tr.spanID(id, k, parent, arg, t0, n)
	return id
}

// spanID records a span whose id was taken before the call, so calls
// nested in it could name it as parent.
func (tr *tracer) spanID(id uint32, k spanKind, parent uint32, arg uint64, t0 time.Time, n int) {
	end := time.Since(tr.origin)
	s := span{id: id, parent: parent, kind: k, arg: arg,
		start: int64(t0.Sub(tr.origin)), end: int64(end), n: int64(n)}
	tr.mu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, s)
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()
}

// timedStore records a span around every Store and Get.
type timedStore struct {
	storage.SpillStore
	tr *tracer
}

func (tr *tracer) wrapStore(s storage.SpillStore) storage.SpillStore {
	if tr == nil {
		return s
	}
	return &timedStore{SpillStore: s, tr: tr}
}

func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func (s *timedStore) Store(key string, ts []tuple.Tuple) error {
	t0 := time.Now()
	err := s.SpillStore.Store(key, ts)
	s.tr.span(kStore, s.tr.cur.Load(), keyHash(key), t0, len(ts))
	return err
}

func (s *timedStore) Get(key string) ([]tuple.Tuple, error) {
	t0 := time.Now()
	ts, err := s.SpillStore.Get(key)
	s.tr.span(kGet, s.tr.cur.Load(), keyHash(key), t0, len(ts))
	return ts, err
}

// timedListener hands out connections that record a span per Read and
// Write, so the shard side's wire traffic is measured from outside.
type timedListener struct {
	net.Listener
	tr *tracer
}

type timedConn struct {
	net.Conn
	tr *tracer
	id uint64
}

func (tr *tracer) wrapListener(l net.Listener) net.Listener {
	if tr == nil {
		return l
	}
	return &timedListener{Listener: l, tr: tr}
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, tr: l.tr, id: uint64(l.tr.conns.Add(1))}, nil
}

func (c *timedConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.tr.span(kConnRead, 0, c.id, t0, n)
	return n, err
}

func (c *timedConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.tr.span(kConnWrite, 0, c.id, t0, n)
	return n, err
}

// layerRep is what one traced repetition read from the engine's public
// telemetry: the metrics registry, checkpoint metrics, and obs
// snapshots polled while it ran.
type layerRep struct {
	reg  *metrics.Registry
	ckpt *metrics.CheckpointMetrics
	ins  *obs.Instruments
	stop chan struct{}
	done chan struct{}

	fillSum  float64
	fillN    int
	fillMax  float64
	wmLagMax int64
	final    *obs.Snapshot

	pulls int64
	// gapNs is the wall time from first to last pull minus the open
	// loop's schedule sleeps.
	gapNs int64
	late  []float64 // open loop: ms each tuple was released late
}

// pollEvery is the obs snapshot period of a traced repetition.
const pollEvery = 10 * time.Millisecond

// attach points the query's telemetry at fresh instruments and starts
// polling them. On a TCP workload the registry belongs to the shard
// query (the source side of a distributed run has no workers).
func (tr *tracer) attach(q *spear.Query, tcp bool) *layerRep {
	lr := &layerRep{
		reg: metrics.NewRegistry(), ckpt: &metrics.CheckpointMetrics{}, ins: obs.NewInstruments(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	q.ObserveWith(lr.ins).CheckpointMetricsInto(lr.ckpt)
	if !tcp {
		q.MetricsInto(lr.reg)
	}
	go lr.poll()
	return lr
}

func (lr *layerRep) poll() {
	defer close(lr.done)
	tk := time.NewTicker(pollEvery)
	defer tk.Stop()
	for {
		select {
		case <-lr.stop:
			return
		case now := <-tk.C:
			lr.observe(lr.ins.Snapshot(now))
		}
	}
}

func (lr *layerRep) observe(s *obs.Snapshot) {
	for _, e := range s.Edges {
		lr.fillSum += e.Fill
		lr.fillN++
		if e.Fill > lr.fillMax {
			lr.fillMax = e.Fill
		}
	}
	for _, wk := range s.Workers {
		if wk.Valid && wk.LagNanos > lr.wmLagMax {
			lr.wmLagMax = wk.LagNanos
		}
	}
}

// finish stops the poller and takes the repetition's final readings.
func (lr *layerRep) finish(f *feeder) {
	close(lr.stop)
	<-lr.done
	lr.final = lr.ins.Snapshot(time.Now())
	lr.pulls = int64(f.i)
	if !f.end.IsZero() {
		lr.gapNs = int64(f.end.Sub(f.first) - f.slept)
	}
	lr.late = f.late
}

// selfTimes returns each span's duration minus its children's.
func (tr *tracer) selfTimes() map[uint32]int64 {
	self := make(map[uint32]int64, len(tr.spans))
	for _, s := range tr.spans {
		self[s.id] += s.end - s.start
		if s.parent != 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write stores the span log as tab-separated lines under dir.
func (tr *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.tsv")
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(fh)
	fmt.Fprintln(bw, "id\tparent\tkind\targ\tstart_ns\tend_ns\tn")
	for _, s := range tr.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, kindNames[s.kind], s.arg, s.start, s.end, s.n)
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return "", err
	}
	return path, fh.Close()
}
