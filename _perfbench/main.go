// Command perfbench is the SPEAr engine's benchmark. It runs one named
// workload through the public spear.Query API for a fixed number of
// seconds and prints, as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a separate traced
// pass plus replay drivers over the same input. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
// Usage (from the repository root):
//
//	python3 _perfbench/run.py --workload dec-mean --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"spear"
)

var inf = math.Inf(1)

// deadline bounds a whole invocation, set-up included.
const deadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	source   string
	commit   string
	outDir   string
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&o.source, "source", "unknown", "digest of the source tree measured")
	fs.StringVar(&o.commit, "commit", "unknown", "commit measured, when known")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench-spans", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookup(o.workload)
	if w == nil || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds > 0, -trace 0|1\n", names)
		return 2
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: over the time limit")
		os.Exit(3)
	})
	rec, res, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(map[string]any{"record": rec}); err != nil {
		return 1
	}
	if err := printJSON(res); err != nil {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return err
	}
	fmt.Println(string(b))
	return nil
}

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// spread is a metric's per-repetition distribution, for the record.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Reps   int     `json:"reps"`
}

// compact moves every tuple's values into one shared backing array, so
// the pre-generated input is two large objects rather than a million
// small ones and the collector's cost of keeping it live stays off the
// engine's numbers.
func compact(in []spear.Tuple) []spear.Tuple {
	n := 0
	for _, t := range in {
		n += len(t.Vals)
	}
	vals := make([]spear.Value, 0, n)
	out := make([]spear.Tuple, len(in))
	for i, t := range in {
		lo := len(vals)
		vals = append(vals, t.Vals...)
		out[i] = spear.Tuple{Ts: t.Ts, Vals: vals[lo:len(vals):len(vals)]}
	}
	return out
}

// setupProbes short runs over the first setupProbeTuples tuples time
// set-up alone.
const (
	setupProbes      = 29
	setupProbeTuples = 4096
)

// querySeed derives repetition rep's sampling seed from the input
// seed: every repetition samples afresh, so accuracy metrics average
// over sampling outcomes as well as windows.
func querySeed(seed int64, rep int) int64 { return seed*1_000_003 + int64(rep) }

// inputs hands each repetition its input and reference. Most workloads
// replay the seed's input every time; a workload with freshInput gets
// a new input per repetition from a seed derived from --seed, made
// before that repetition's clock starts, so one run averages over many
// inputs. The hashes chain every input (and reference) used, in order.
type inputs struct {
	w       *workload
	seed    int64
	rep     int
	in      []spear.Tuple
	ref     *reference
	base    uint64 // live heap with this input generated
	genS    float64
	n       int
	inHash  hash.Hash64
	refHash hash.Hash64
}

func newInputs(w *workload, seed int64) *inputs {
	s := &inputs{w: w, seed: seed, rep: -1, inHash: fnv.New64a(), refHash: fnv.New64a()}
	s.get(0)
	return s
}

func (s *inputs) get(rep int) ([]spear.Tuple, *reference, uint64) {
	if s.in != nil && !s.w.freshInput {
		return s.in, s.ref, s.base
	}
	if rep != s.rep {
		t0 := time.Now()
		s.in, s.ref = nil, nil
		seed := s.seed
		if s.w.freshInput {
			seed = s.seed*7919 + int64(rep)
		}
		s.in = compact(s.w.gen(seed))
		s.ref = buildReference(s.w, s.in)
		s.genS += time.Since(t0).Seconds()
		s.rep = rep
		s.n++
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], inputDigest(s.in))
		s.inHash.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], s.ref.hash)
		s.refHash.Write(b[:])
		runtime.GC()
		s.base = liveHeap()
	}
	return s.in, s.ref, s.base
}

// measure generates the input, warms up, runs the timed repetitions
// and assembles the report.
func measure(w *workload, o options) (map[string]any, result, error) {
	steal := watchSteal()
	inp := newInputs(w, o.seed)
	in, ref, base := inp.get(0)

	// Warm-up: one untimed run (a closed-loop prefix for the open-loop
	// workload) so pools, heap size and lazily built state are in place.
	warmW, warmIn, warmRef := w, in, ref
	if w.warmTuples > 0 && w.warmTuples < len(in) {
		c := *w
		c.open = false
		warmW, warmIn = &c, in[:w.warmTuples]
		warmRef = buildReference(warmW, warmIn)
	}
	if _, err := runRep(warmW, warmIn, warmRef, querySeed(o.seed, 0), nil, base); err != nil {
		return nil, result{}, fmt.Errorf("%s warm-up: %w", w.name, err)
	}

	// Set-up time is short and noisy, so besides every timed
	// repetition a run also times the set-up of a few short runs over a
	// prefix of the input (closed loop), and reports the median of all.
	probeW := *w
	probeW.open = false
	probeIn := in[:min(len(in), setupProbeTuples)]
	probeRef := buildReference(&probeW, probeIn)
	var probes []float64
	for i := 0; i < setupProbes; i++ {
		out, err := runRep(&probeW, probeIn, probeRef, querySeed(o.seed, -1-i), nil, base)
		if err != nil {
			return nil, result{}, fmt.Errorf("%s set-up probe: %w", w.name, err)
		}
		probes = append(probes, out.setup.Seconds())
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		budget /= 2 // half untraced (the overhead baseline), half traced
	}
	rep := 1
	timed := func(tr *tracer) ([]*repOut, error) {
		var outs []*repOut
		start := time.Now()
		// Stop before a repetition would overrun the budget (at least
		// two repetitions always run).
		for len(outs) < 2 || time.Since(start)*time.Duration(len(outs)+1) <= budget*time.Duration(len(outs)) {
			in, ref, base := inp.get(rep)
			out, err := runRep(w, in, ref, querySeed(o.seed, rep), tr, base)
			rep++
			if err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", w.name, rep-1, err)
			}
			outs = append(outs, out)
		}
		return outs, nil
	}
	reps, err := timed(nil)
	if err != nil {
		return nil, result{}, err
	}
	e2e, spreads := endToEnd(w, reps, probes)

	rec := map[string]any{
		"workload":         w.name,
		"seed":             o.seed,
		"seconds":          o.seconds,
		"trace":            o.trace,
		"input_tuples":     len(in),
		"inputs":           inp.n,
		"input_hash":       fmt.Sprintf("%016x", inp.inHash.Sum64()),
		"reference_hash":   fmt.Sprintf("%016x", inp.refHash.Sum64()),
		"expected_windows": ref.expected,
		"generate_s":       inp.genS,
		"reps":             len(reps),
		"env": map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS + "/" + runtime.GOARCH,
			"commit":     o.commit,
			"source":     o.source,
		},
		"end_to_end": e2e,
		"spreads":    spreads,
	}
	if o.trace == 0 {
		res := account(w, rec, reps)
		res.Metrics = e2e
		rec["steal_frac"] = steal.done()
		return rec, res, nil
	}

	tr := newTracer()
	treps, err := timed(tr)
	if err != nil {
		return nil, result{}, err
	}
	in, _, _ = inp.get(inp.rep)
	layers, selfMs, err := perLayer(w, in, reps, treps, tr)
	if err != nil {
		return nil, result{}, err
	}
	rec["self_ms"] = selfMs
	rec["traced_reps"] = len(treps)
	rec["spans_dropped"] = tr.dropped
	if path, err := tr.write(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: span file:", err)
	} else {
		rec["spans"] = path
	}
	rec["per_layer"] = layers
	res := account(w, rec, append(reps, treps...))
	res.Metrics = layers
	rec["steal_frac"] = steal.done()
	return rec, res, nil
}

// account fills the result's window accounting and the record's
// failure breakdown. failed counts windows the engine did not deliver
// exactly once. A delivered window whose realized error exceeds the
// bound it reports is a statistical contract miss, which the contract
// allows for up to 1 − confidence of windows: it lowers window_ok_frac
// and is recorded, and only a miss rate above that allowance makes the
// run incorrect.
func account(w *workload, rec map[string]any, reps []*repOut) result {
	var res result
	var missing, duplicated, contractMiss, failedWins int
	for _, r := range reps {
		v := r.verdict
		res.Attempted += v.windows
		res.Failed += v.missing + v.dupWindows
		failedWins += v.failed
		missing += v.missing
		duplicated += v.duplicated
		contractMiss += v.contractMiss
	}
	res.Correct = res.Failed == 0 && float64(contractMiss)/float64(res.Attempted) <= 1-w.conf
	rec["failed_window_frac"] = float64(failedWins) / float64(res.Attempted)
	rec["missing_windows"] = missing
	rec["duplicated_results"] = duplicated
	rec["contract_misses"] = contractMiss
	return res
}

// endToEnd turns untraced repetitions into the end-to-end metrics.
func endToEnd(w *workload, reps []*repOut, setupProbes []float64) (map[string]metricVal, map[string]spread) {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var tuples, allocs, allocBytes, results, accel, shed, windows, failed, errN int64
	var cpu time.Duration
	var errSum float64
	var lats []float64
	for _, r := range reps {
		n := float64(r.tuples)
		add("setup_s", r.setup.Seconds())
		add("throughput_tps", n/r.busy.Seconds())
		add("cpu_s_per_mtuple", r.cpu.Seconds()/n*1e6)
		add("allocs_per_tuple", float64(r.allocs)/n)
		add("alloc_bytes_per_tuple", float64(r.allocBytes)/n)
		add("gc_cycles", float64(r.gcCycles))
		add("peak_live_heap_bytes", float64(r.peakLive))
		tuples += int64(r.tuples)
		allocs += int64(r.allocs)
		allocBytes += int64(r.allocBytes)
		cpu += r.cpu
		v := r.verdict
		results += int64(v.results)
		accel += int64(v.accelerated)
		shed += int64(v.shed)
		windows += int64(v.windows)
		failed += int64(v.failed)
		errSum += v.errSum
		errN += int64(v.errN)
		// A window's latency percentiles are taken per repetition and
		// reported as their median: one disturbed repetition (a stolen
		// vCPU, a long collection) then cannot move the run's figure.
		lats = append(lats, r.lat...)
		add("window_latency_p50_ms", nearestRank(append([]float64(nil), r.lat...), 0.50))
		add("window_latency_p95_ms", nearestRank(append([]float64(nil), r.lat...), 0.95))
		if v.errN > 0 {
			add("rel_error_mean", v.errSum/float64(v.errN))
		}
		add("accelerated_frac", float64(v.accelerated)/float64(v.results))
	}
	per["setup_s"] = append(per["setup_s"], setupProbes...)
	met := 0
	for _, l := range lats {
		if l <= float64(w.slo)/1e6 {
			met++
		}
	}
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]metricVal{
		"setup_s":               {median(per["setup_s"]), "s"},
		"throughput_tps":        {median(per["throughput_tps"]), "tuples/s"},
		"window_latency_p50_ms": {median(per["window_latency_p50_ms"]), "ms"},
		"window_latency_p95_ms": {median(per["window_latency_p95_ms"]), "ms"},
		"slo_met_frac":          {frac(int64(met), int64(len(lats))), "ratio"},
		"cpu_s_per_mtuple":      {cpu.Seconds() / float64(tuples) * 1e6, "s"},
		"allocs_per_tuple":      {frac(allocs, tuples), "count"},
		"alloc_bytes_per_tuple": {frac(allocBytes, tuples), "B"},
		"accelerated_frac":      {frac(accel, results), "ratio"},
		"window_ok_frac":        {1 - frac(failed, windows), "ratio"},
		"in_contract_frac":      {1 - frac(shed, results), "ratio"},
		"rel_error_mean":        {errSum / math.Max(1, float64(errN)), "ratio"},
	}
	spreads := map[string]spread{}
	for k, xs := range per {
		q1, q3 := quartiles(xs)
		spreads[k] = spread{Median: median(xs), Q1: q1, Q3: q3, Reps: len(xs)}
	}
	return m, spreads
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
