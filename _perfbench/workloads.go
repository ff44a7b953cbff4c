package main

import (
	"math/rand"
	"time"

	"spear"
	"spear/internal/dataset"
	"spear/internal/storage"
)

// stage is one stateless Map closure of a workload's query. The same
// functions build the query and the exact reference, so both see the
// same survivors.
type stage func(spear.Tuple) (spear.Tuple, bool)

// workload is one named benchmark workload: how its input is made,
// which query runs over it, and how its window results are judged.
type workload struct {
	name string
	// open selects the open loop: tuple i is released at its due time
	// (its timestamp, as an offset from the first pull) whatever the
	// engine is doing. Closed-loop workloads are replayed as fast as the
	// engine pulls.
	open bool
	par  int
	// slo is the window-latency target slo_met_frac counts against.
	slo time.Duration
	// rangeNs and slideNs define the window over event time.
	rangeNs, slideNs int64
	eps, conf        float64
	budget           int
	knownGroups      int
	// disableIncr sends non-holistic windows through the sample path
	// (the paper's §5.5 setting) instead of the incremental exact one.
	disableIncr bool
	// gen makes the input from the seed, before any clock starts.
	gen    func(seed int64) []spear.Tuple
	stages []stage
	value  func(spear.Tuple) float64
	key    func(spear.Tuple) string // nil for scalar queries
	// valueField and keyField are the column positions the columnar
	// replay driver declares.
	valueField, keyField int
	// tcp runs the windowed stage on a loopback ServeShard node.
	tcp bool
	// store makes the secondary storage S (nil: an in-memory store).
	store func() storage.SpillStore
	// tune adds the workload's engine settings beyond the common ones.
	tune func(q *spear.Query)
	// freshInput generates a new input for every repetition (see
	// inputs in main.go).
	freshInput bool
	// warmTuples bounds the warm-up pass (0: the whole input).
	warmTuples int
	// onResult, when set, runs inside the sink for every result (tests
	// use it to stall the sink).
	onResult func(spear.Result)
}

const (
	epsilon    = 0.10
	confidence = 0.95
)

// Input sizes. Each closed-loop run replays its input many times
// (one engine run per repetition), so the sizes trade the number of
// repetitions a run gets against how many windows one repetition has.
const (
	decTuples = 1_000_000
	etlTuples = 1_000_000
	gcmTuples = 1_000_000
	// gcmRate lowers the GCM arrival rate from the paper's 88.9/s so one
	// input holds ≈110 fifteen-minute windows; with a fresh input per
	// repetition a run then averages over more than a thousand.
	gcmRate = 20
)

// Burst schedule: base rate, 8x burst, base rate again.
const (
	burstBaseRate  = 20_000
	burstFactor    = 8
	burstBaseS     = 2.25
	burstS         = 2.0
	burstTailS     = 3.25
	burstWin       = 25 * time.Millisecond
	burstSLO       = 150 * time.Millisecond
	burstBudgetMax = 512
	burstBudgetMin = 32
	// burstStoreDelay is the latency of one archive chunk write (512
	// tuples). One spill worker then drains ≈80k tuples/s: half the
	// burst rate, four times the base rate.
	burstStoreDelay = 6400 * time.Microsecond
)

var workloads = []*workload{decMean(), etlColumnar(), gcmGroupedTCP(), burstSLOWorkload()}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func field0(t spear.Tuple) float64 { return t.Vals[0].AsFloat() }

// build returns the workload's query over everything but its source:
// the stages, window, aggregate and engine settings (with the store
// wrapped by tr when tracing). qseed seeds sampling and routing. It also builds the shard
// side of a TCP workload, which must match the source side.
func (w *workload) build(qseed int64, tr *tracer) *spear.Query {
	q := spear.NewQuery(w.name)
	for _, s := range w.stages {
		q.Map(s)
	}
	if w.rangeNs == w.slideNs {
		q.TumblingWindow(time.Duration(w.rangeNs))
	} else {
		q.SlidingWindow(time.Duration(w.rangeNs), time.Duration(w.slideNs))
	}
	if w.key != nil {
		q.GroupBy(w.key).KnownGroups(w.knownGroups)
	}
	q.Mean(w.value).
		Error(w.eps, w.conf).
		BudgetTuples(w.budget).
		Parallelism(w.par).
		Seed(qseed)
	if w.disableIncr {
		q.DisableIncremental()
	}
	var store storage.SpillStore = storage.NewMemStore()
	if w.store != nil {
		store = w.store()
	}
	q.SpillStore(tr.wrapStore(store))
	if w.tune != nil {
		w.tune(q)
	}
	return q
}

// decMean is the paper's headline path on the row engine: the DEC
// packet trace, a filter, and a sliding mean with every window
// answered from the sample.
func decMean() *workload {
	return &workload{
		name: "dec-mean", par: 2, slo: time.Second,
		rangeNs: int64(45 * time.Second), slideNs: int64(15 * time.Second),
		eps: epsilon, conf: confidence, budget: 1000, disableIncr: true,
		value: field0,
		gen: func(seed int64) []spear.Tuple {
			return dataset.DEC(dataset.DECConfig{Tuples: decTuples, Seed: seed}).Materialize()
		},
		stages: []stage{func(t spear.Tuple) (spear.Tuple, bool) {
			// Keep data packets: drop the 40-byte ACKs.
			return t, t.Vals[0].AsFloat() > 40
		}},
		// Four aligned checkpoints per repetition.
		tune: func(q *spear.Query) { q.CheckpointEvery(decTuples/4, 0) },
	}
}

// etlColumnar is the seven-stage map/filter chain of the columnar
// experiment fused into one kernel, feeding column batches into a
// tumbling mean. Values are small integers so every exact sum is
// exact in float64.
func etlColumnar() *workload {
	return &workload{
		name: "etl-columnar", par: 2, slo: time.Second,
		// 200 windows per repetition: ten beyond each one's p95.
		rangeNs: 5_000, slideNs: 5_000,
		eps: epsilon, conf: confidence, budget: 1000, disableIncr: true,
		value: field0,
		gen: func(seed int64) []spear.Tuple {
			r := rand.New(rand.NewSource(seed))
			in := make([]spear.Tuple, etlTuples)
			for i := range in {
				in[i] = spear.NewTuple(int64(i), spear.Float(float64(r.Intn(256))))
			}
			return in
		},
		stages: etlStages(),
		tune:   func(q *spear.Query) { q.BatchSize(64).Columnar(0) },
	}
}

// etlStages is the ETL chain: project a fresh tuple, then rewrite the
// owned measure in place or filter. Every value stays integral.
func etlStages() []stage {
	set := func(t spear.Tuple, v float64) spear.Tuple { t.Vals[0] = spear.Float(v); return t }
	return []stage{
		func(t spear.Tuple) (spear.Tuple, bool) { // project
			return spear.NewTuple(t.Ts, spear.Float(t.Vals[0].AsFloat()+1)), true
		},
		func(t spear.Tuple) (spear.Tuple, bool) { return set(t, t.Vals[0].AsFloat()*2), true },   // scale
		func(t spear.Tuple) (spear.Tuple, bool) { return t, int64(t.Vals[0].AsFloat())&15 != 0 }, // filter ~1/8
		func(t spear.Tuple) (spear.Tuple, bool) { // clamp
			if v := t.Vals[0].AsFloat(); v > 500 {
				t = set(t, 500)
			}
			return t, true
		},
		func(t spear.Tuple) (spear.Tuple, bool) { // floor
			if v := t.Vals[0].AsFloat(); v < 8 {
				t = set(t, 8)
			}
			return t, true
		},
		func(t spear.Tuple) (spear.Tuple, bool) { return set(t, t.Vals[0].AsFloat()+3), true }, // re-bias
		func(t spear.Tuple) (spear.Tuple, bool) { // fold
			if v := t.Vals[0].AsFloat(); v > 256 {
				t = set(t, v-256)
			}
			return t, true
		},
	}
}

// gcmGroupedTCP is the paper's grouped query on the GCM stream with
// Fig. 10's fifteen-minute windows, its windowed stage served by one
// shard node over loopback TCP.
func gcmGroupedTCP() *workload {
	const rng, slide = 15 * time.Minute, 15 * time.Minute / 2
	return &workload{
		name: "gcm-grouped-tcp", par: 2, slo: time.Second, tcp: true, freshInput: true,
		rangeNs: int64(rng), slideNs: int64(slide),
		eps: epsilon, conf: confidence, budget: 4000, knownGroups: dataset.SchedClasses,
		value:      func(t spear.Tuple) float64 { return t.Vals[1].AsFloat() },
		key:        func(t spear.Tuple) string { return t.Vals[0].AsString() },
		valueField: 1, keyField: 0,
		gen: func(seed int64) []spear.Tuple {
			return dataset.GCM(dataset.GCMConfig{
				Tuples: gcmTuples, RatePerSec: gcmRate, Seed: seed,
				WindowSize: rng, WindowSlide: slide,
			}).Materialize()
		},
	}
}

// burstSLOWorkload is the open-loop workload: Gaussian values released
// on a schedule with an 8x burst, archived through the async spill
// plane over a slow store, under the adaptive accuracy controller.
func burstSLOWorkload() *workload {
	return &workload{
		name: "burst-slo", open: true, par: 1, slo: burstSLO,
		rangeNs: int64(burstWin), slideNs: int64(burstWin),
		eps: epsilon, conf: confidence, budget: burstBudgetMax, disableIncr: true,
		value:      field0,
		warmTuples: 40_000,
		gen: func(seed int64) []spear.Tuple {
			r := rand.New(rand.NewSource(seed))
			var in []spear.Tuple
			elapsed := 0.0
			for _, p := range []struct{ secs, rate float64 }{
				{burstBaseS, burstBaseRate},
				{burstS, burstBaseRate * burstFactor},
				{burstTailS, burstBaseRate},
			} {
				n := int(p.secs * p.rate)
				for i := 0; i < n; i++ {
					ts := int64((elapsed + float64(i)/p.rate) * 1e9)
					in = append(in, spear.NewTuple(ts, spear.Float(100+30*r.NormFloat64())))
				}
				elapsed += p.secs
			}
			return in
		},
		store: func() storage.SpillStore {
			return storage.NewLatencyStore(storage.NewMemStore(), burstStoreDelay, 0, nil)
		},
		tune: func(q *spear.Query) {
			q.LatencySLO(burstSLO).
				AdaptiveBudget(burstBudgetMin, burstBudgetMax).
				ObserveEvery(50 * time.Millisecond).
				SpillWorkers(1)
		},
	}
}
