package spe

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/tuple"
	"spear/internal/window"
)

// ---- Shuffle counter regression -----------------------------------------

// TestShuffleCounterStaysBounded pins the overflow fix: the round-robin
// counter must never grow unboundedly, because on int wrap `next % n`
// turns negative and indexes out of channel-slice bounds.
func TestShuffleCounterStaysBounded(t *testing.T) {
	s := NewShuffle()
	for i := 0; i < 10_000; i++ {
		got := s.Route(tuple.Tuple{}, 3)
		if got != i%3 {
			t.Fatalf("route %d = %d, want %d", i, got, i%3)
		}
		if s.next < 0 || s.next >= 3 {
			t.Fatalf("counter escaped [0,3): %d", s.next)
		}
	}
}

// TestShuffleSurvivesWrap simulates the pre-fix failure mode directly: a
// counter at MaxInt (the state an unbounded increment eventually
// reaches) must keep routing in range instead of panicking.
func TestShuffleSurvivesWrap(t *testing.T) {
	s := &Shuffle{next: math.MaxInt}
	seen := make(map[int]bool)
	for i := 0; i < 12; i++ {
		got := s.Route(tuple.Tuple{}, 4)
		if got < 0 || got >= 4 {
			t.Fatalf("route out of range: %d", got)
		}
		seen[got] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin degenerated: only %d of 4 workers hit", len(seen))
	}
	// And a wrapped-negative counter (post-overflow state) recovers too.
	s = &Shuffle{next: -7}
	if got := s.Route(tuple.Tuple{}, 4); got < 0 || got >= 4 {
		t.Fatalf("negative counter routed out of range: %d", got)
	}
}

// TestShuffleAtPhase pins NewShuffleAt's recovery semantics: the phase
// of a fresh shuffle after k tuples is k, so the first route is k % n
// and round-robin continues from there.
func TestShuffleAtPhase(t *testing.T) {
	for _, start := range []int{0, 1, 2, 3, 7, 1000003} {
		s := NewShuffleAt(start)
		for i := 0; i < 9; i++ {
			want := (start + i) % 4
			if got := s.Route(tuple.Tuple{}, 4); got != want {
				t.Fatalf("start %d, route %d = %d, want %d", start, i, got, want)
			}
		}
	}
	if got := NewShuffleAt(-5).Route(tuple.Tuple{}, 4); got != 0 {
		t.Errorf("negative start must clamp to phase 0, got %d", got)
	}
}

// ---- errOnce -------------------------------------------------------------

// TestErrOnceConcurrent hammers the atomic fast path from many
// goroutines: get() must be nil before any set, and after concurrent
// sets every reader must observe exactly one stable winner.
func TestErrOnceConcurrent(t *testing.T) {
	var e errOnce
	if e.get() != nil {
		t.Fatal("fresh errOnce not nil")
	}

	const writers, readers = 16, 16
	errs := make([]error, writers)
	for i := range errs {
		errs[i] = fmt.Errorf("worker %d failed", i)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < writers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			e.set(nil) // nil must never win
			e.set(errs[i])
		}(i)
	}
	for i := 0; i < readers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			for j := 0; j < 1000; j++ {
				if err := e.get(); err != nil {
					// Once visible, the value must be one of the
					// candidate errors and must never change.
					first := err
					for k := 0; k < 10; k++ {
						if again := e.get(); again != first {
							t.Errorf("errOnce changed: %v → %v", first, again)
							return
						}
					}
					return
				}
			}
		}()
	}
	start.Done()
	done.Wait()

	winner := e.get()
	if winner == nil {
		t.Fatal("no error recorded")
	}
	found := false
	for _, cand := range errs {
		if winner == cand {
			found = true
		}
	}
	if !found {
		t.Errorf("winner %v is not one of the set errors", winner)
	}
	e.set(fmt.Errorf("late loser"))
	if e.get() != winner {
		t.Error("later set displaced the first error")
	}
}

// ---- batch-boundary semantics -------------------------------------------

// runPipeline executes a two-stage pipeline (map → windowed sum) over a
// deterministic stream at the given batch size and returns results
// sorted by (worker, window start).
func runPipeline(t *testing.T, n, batch, queue, par int) []core.Result {
	t.Helper()
	var in []tuple.Tuple
	for i := 0; i < n; i++ {
		in = append(in, tuple.New(int64(i), tuple.Float(1)))
	}
	sink := &collectSink{}
	tp := NewTopology(Config{WatermarkPeriod: 100, BatchSize: batch, QueueSize: queue}).
		SetSpout(NewSliceSpout(in)).
		AddMap("id", func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true }).
		SetWindowed("sum", par, nil, scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)).
		SetSink(sink.sink)
	if err := tp.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]core.Result, len(sink.res))
	for i := range sink.res {
		out[i] = sink.res[i]
		out[i].WindowID = window.ID(int64(out[i].WindowID)) // copy as-is
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Scalar < out[j].Scalar
	})
	return out
}

// TestBatchBoundarySemantics runs the same pipeline at batch sizes 1
// (per-tuple), 2, 64, and one larger than the whole stream, and demands
// loss-free, late-drop-free output at every size: each window's total
// must be exact, which can only happen if no data tuple is ever
// stranded behind (or overtaken by) a watermark at a flush boundary.
func TestBatchBoundarySemantics(t *testing.T) {
	leakcheck.Check(t)
	const n = 2000
	for _, batch := range []int{1, 2, 64, n + 500} {
		for _, par := range []int{1, 3} {
			t.Run(fmt.Sprintf("batch%d/par%d", batch, par), func(t *testing.T) {
				res := runPipeline(t, n, batch, 0, par)
				var total float64
				perWindow := map[int64]float64{}
				for _, r := range res {
					total += r.Scalar
					perWindow[r.Start] += r.Scalar
				}
				if total != n {
					t.Fatalf("lost tuples: total %v, want %d", total, n)
				}
				if len(perWindow) != n/100 {
					t.Fatalf("%d windows, want %d", len(perWindow), n/100)
				}
				for start, sum := range perWindow {
					if sum != 100 {
						t.Errorf("window %d sum %v, want 100 (tuple crossed a watermark flush)", start, sum)
					}
				}
			})
		}
	}
}

// TestBatchSizesIdenticalResults demands bit-identical window results
// across batch sizes: same values, same N, same accelerate/exact Mode,
// same estimated errors. Routing, sampling, and flush ordering are all
// deterministic, so any divergence is a batching bug.
func TestBatchSizesIdenticalResults(t *testing.T) {
	leakcheck.Check(t)
	ref := runPipeline(t, 3000, 1, 0, 2)
	for _, batch := range []int{2, 64, 4096} {
		got := runPipeline(t, 3000, batch, 0, 2)
		if len(got) != len(ref) {
			t.Fatalf("batch %d: %d results, want %d", batch, len(got), len(ref))
		}
		for i := range ref {
			a, b := ref[i], got[i]
			if a.Start != b.Start || a.End != b.End || a.N != b.N ||
				a.Scalar != b.Scalar || a.Mode != b.Mode || a.EstError != b.EstError {
				t.Errorf("batch %d result %d diverged:\n per-tuple %+v\n   batched %+v", batch, i, a, b)
			}
		}
	}
}

// countingManager wraps a Manager, counting ingested tuples. It does
// NOT implement BatchManager, so it exercises the per-tuple fallback
// shim inside the batched engine.
type countingManager struct {
	inner core.Manager
	seen  int64
}

func (c *countingManager) OnTuple(t tuple.Tuple) ([]core.Result, error) {
	c.seen++
	return c.inner.OnTuple(t)
}
func (c *countingManager) OnWatermark(wm int64) ([]core.Result, error) {
	return c.inner.OnWatermark(wm)
}
func (c *countingManager) MemUsage() int { return c.inner.MemUsage() }

// TestBarrierFlushCoversExactPrefix injects a checkpoint barrier at a
// fixed spout offset and asserts the snapshot point observes exactly
// that many tuples: the barrier broadcast must flush every pending
// scatter buffer ahead of itself (or the count would fall short), and
// post-barrier tuples must be held back by alignment (or it would
// overshoot). Runs at several batch sizes including one larger than
// the barrier offset.
func TestBarrierFlushCoversExactPrefix(t *testing.T) {
	leakcheck.Check(t)
	const n, barrierAt = 2000, 500
	for _, batch := range []int{1, 2, 64, 4096} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			var in []tuple.Tuple
			for i := 0; i < n; i++ {
				in = append(in, tuple.New(int64(i), tuple.Float(1)))
			}
			cm := &countingManager{}
			factory := func(wi int) (core.Manager, error) {
				inner, err := scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)(wi)
				if err != nil {
					return nil, err
				}
				cm.inner = inner
				return cm, nil
			}
			var atSnapshot int64 = -1
			fired := false
			hooks := &CheckpointHooks{
				Trigger: func(offset, _ int64) (uint64, bool, int64, error) {
					if !fired && offset >= barrierAt {
						fired = true
						return 1, true, offset + 1, nil
					}
					return 0, false, offset + 1, nil
				},
				Snapshot: func(id uint64, worker int, mgr core.Manager) error {
					atSnapshot = cm.seen
					return nil
				},
			}
			sink := &collectSink{}
			tp := NewTopology(Config{WatermarkPeriod: 100, BatchSize: batch, Checkpoint: hooks}).
				SetSpout(NewSliceSpout(in)).
				SetWindowed("sum", 1, nil, factory).
				SetSink(sink.sink)
			if err := tp.Run(); err != nil {
				t.Fatal(err)
			}
			if !fired {
				t.Fatal("barrier never injected")
			}
			if atSnapshot != barrierAt {
				t.Errorf("snapshot saw %d tuples, want exactly %d", atSnapshot, barrierAt)
			}
			if cm.seen != n {
				t.Errorf("manager saw %d tuples total, want %d", cm.seen, n)
			}
		})
	}
}

// slowManager wraps a Manager and stalls periodically, forcing the
// bounded queues upstream to fill.
type slowManager struct {
	inner core.Manager
	every int
	seen  int
}

func (s *slowManager) OnTuple(t tuple.Tuple) ([]core.Result, error) {
	s.seen++
	if s.seen%s.every == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return s.inner.OnTuple(t)
}
func (s *slowManager) OnWatermark(wm int64) ([]core.Result, error) {
	return s.inner.OnWatermark(wm)
}
func (s *slowManager) MemUsage() int { return s.inner.MemUsage() }

// TestBackpressureSlowWindowedWorkerBatched: a queue of one batch and a
// deliberately slow windowed worker force every upstream sender to
// block on flush; the pipeline must neither deadlock nor lose tuples.
func TestBackpressureSlowWindowedWorkerBatched(t *testing.T) {
	leakcheck.Check(t)
	const n = 3000
	var in []tuple.Tuple
	for i := 0; i < n; i++ {
		in = append(in, tuple.New(int64(i%100), tuple.Float(1)))
	}
	sink := &collectSink{}
	inner := scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(100), 10)
	factory := func(wi int) (core.Manager, error) {
		m, err := inner(wi)
		if err != nil {
			return nil, err
		}
		return &slowManager{inner: m, every: 100}, nil
	}
	tp := NewTopology(Config{QueueSize: 1, BatchSize: 8, WatermarkPeriod: 100}).
		SetSpout(NewSliceSpout(in)).
		AddMap("id", func(t tuple.Tuple) (tuple.Tuple, bool) { return t, true }).
		SetWindowed("sum", 2, nil, factory).
		SetSink(sink.sink)
	done := make(chan error, 1)
	go func() { done <- tp.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline deadlocked under back-pressure")
	}
	var total float64
	for _, r := range sink.res {
		total += r.Scalar
	}
	if total != n {
		t.Errorf("sum across workers = %v, want %d", total, n)
	}
}
