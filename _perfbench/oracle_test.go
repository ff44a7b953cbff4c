package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"spear"
)

// tinyWorkload is a scalar tumbling mean over integral values, small
// enough to build results for by hand.
func tinyWorkload(par int) *workload {
	w := &workload{
		name: "tiny", par: par, slo: time.Second,
		rangeNs: 10, slideNs: 10, eps: 0.1, conf: 0.95, budget: 4,
		value: field0, disableIncr: true,
	}
	w.gen = func(int64) []spear.Tuple {
		in := make([]spear.Tuple, 100)
		for i := range in {
			in[i] = spear.NewTuple(int64(i), spear.Float(float64(1+i%7)))
		}
		return in
	}
	return w
}

// exactResults answers every window of ref exactly, split over two
// workers.
func exactResults(ref *reference) []sinkRec {
	var recs []sinkRec
	for s, rw := range ref.wins {
		if rw.n == 0 {
			continue
		}
		start := (ref.kmin + int64(s)) * ref.slideNs
		mean := rw.sum / float64(rw.n)
		n0 := rw.n / 2
		for wk, n := range []int64{n0, rw.n - n0} {
			recs = append(recs, sinkRec{worker: wk, at: time.Now(), res: spear.Result{
				Start: start, End: start + ref.rangeNs, N: n, Scalar: mean,
				Mode: 1, Epsilon: 0.1, Confidence: 0.95,
			}})
		}
	}
	return recs
}

func TestOracleAcceptsExactAnswers(t *testing.T) {
	w := tinyWorkload(2)
	ref := buildReference(w, w.gen(1))
	v, err := ref.check(exactResults(ref))
	if err != nil {
		t.Fatal(err)
	}
	if v.windows != 10 || v.failed != 0 || v.results != 20 {
		t.Fatalf("verdict %+v, want 10 windows, 20 results, none failed", v)
	}
}

func TestOracleCountsPerturbedResultAsFailed(t *testing.T) {
	w := tinyWorkload(2)
	ref := buildReference(w, w.gen(1))
	recs := exactResults(ref)
	recs[4].res.Scalar *= 1.5 // one worker's half of window 2 is 50% off: 25% on the window
	v, err := ref.check(recs)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 1 || v.contractMiss != 1 {
		t.Fatalf("perturbed result: failed=%d contractMiss=%d, want 1 and 1", v.failed, v.contractMiss)
	}

	// The same error within a shed result's reported bound is not a miss.
	recs[4].res.Mode = 3 // ModeShed
	recs[4].res.EstError = 0.3
	if v, _ = ref.check(recs); v.failed != 0 || v.shed != 1 {
		t.Fatalf("shed within its bound: failed=%d shed=%d, want 0 and 1", v.failed, v.shed)
	}
}

func TestOracleCountsMissingAndDuplicateWindows(t *testing.T) {
	w := tinyWorkload(2)
	ref := buildReference(w, w.gen(1))
	recs := exactResults(ref)
	missing := recs[2:] // window 0 never arrives
	if v, err := ref.check(missing); err != nil || v.missing != 1 || v.failed != 1 {
		t.Fatalf("missing window: %+v, %v", v, err)
	}
	dup := append(exactResults(ref), recs[3])
	if v, err := ref.check(dup); err != nil || v.duplicated != 1 || v.failed != 1 {
		t.Fatalf("duplicated result: %+v, %v", v, err)
	}
}

func TestOracleStructuralMismatchFails(t *testing.T) {
	w := tinyWorkload(2)
	ref := buildReference(w, w.gen(1))
	var se *structuralError

	recs := exactResults(ref)
	recs[0].res.N++
	if _, err := ref.check(recs); !errors.As(err, &se) {
		t.Fatalf("wrong ΣN: got %v, want a structural mismatch", err)
	}
	recs = exactResults(ref)
	recs[0].res.Start, recs[0].res.End = 1000, 1010
	if _, err := ref.check(recs); !errors.As(err, &se) {
		t.Fatalf("unknown window: got %v, want a structural mismatch", err)
	}
}

func TestOracleGroupedComparesPerGroup(t *testing.T) {
	w := tinyWorkload(1)
	w.key = func(t spear.Tuple) string {
		if t.Ts%2 == 0 {
			return "even"
		}
		return "odd"
	}
	ref := buildReference(w, w.gen(1))
	var recs []sinkRec
	for s, rw := range ref.wins {
		start := (ref.kmin + int64(s)) * ref.slideNs
		for wk, g := range []string{"even", "odd"} {
			gr := rw.groups[g]
			recs = append(recs, sinkRec{worker: wk, res: spear.Result{
				Start: start, End: start + ref.rangeNs, N: gr.n, Mode: 1, Epsilon: 0.1,
				Groups: map[string]float64{g: gr.sum / float64(gr.n)},
			}})
		}
	}
	if v, err := ref.check(recs); err != nil || v.failed != 0 {
		t.Fatalf("exact groups: %+v, %v", v, err)
	}
	recs[3].res.Groups["odd"] *= 2
	if v, err := ref.check(recs); err != nil || v.failed != 1 {
		t.Fatalf("one group doubled: %+v, %v", v, err)
	}
	recs[3].res.Groups["bogus"] = 1
	var se *structuralError
	if _, err := ref.check(recs); !errors.As(err, &se) {
		t.Fatalf("unknown group: got %v, want a structural mismatch", err)
	}
}

// TestParallelRunSumsN runs a real par-2 query: the oracle checks ΣN
// per window across both workers, and every window must pass.
func TestParallelRunSumsN(t *testing.T) {
	w := tinyWorkload(2)
	in := w.gen(1)
	ref := buildReference(w, in)
	out, err := runRep(w, in, ref, 7, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.verdict.failed != 0 || out.verdict.windows != 10 {
		t.Fatalf("par-2 run: %+v", out.verdict)
	}
	if out.verdict.results <= out.verdict.windows {
		t.Fatalf("par-2 run produced %d results for %d windows; want both workers answering", out.verdict.results, out.verdict.windows)
	}
}

// TestOpenLoopChargesSinkStall stalls the sink once on an open-loop
// run: the stall backs up the pipeline and makes the generator late,
// and the windows due meanwhile must show it as latency, measured from
// their due time rather than from when the late generator released
// their tuples.
func TestOpenLoopChargesSinkStall(t *testing.T) {
	const stall = 150 * time.Millisecond
	w := tinyWorkload(1)
	w.open = true
	w.rangeNs, w.slideNs = int64(10*time.Millisecond), int64(10*time.Millisecond)
	w.gen = func(int64) []spear.Tuple {
		in := make([]spear.Tuple, 400) // 400 ms at one tuple per ms
		for i := range in {
			in[i] = spear.NewTuple(int64(i)*int64(time.Millisecond), spear.Float(float64(1+i%7)))
		}
		return in
	}
	stalled := false
	w.onResult = func(r spear.Result) {
		if !stalled && r.Start >= int64(100*time.Millisecond) {
			stalled = true
			time.Sleep(stall)
		}
	}
	in := w.gen(1)
	ref := buildReference(w, in)
	out, err := runRep(w, in, ref, 1, newTracer(), 0)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, l := range out.lat {
		worst = math.Max(worst, l)
	}
	if worst < float64(stall/2)/1e6 {
		t.Fatalf("worst window latency %.1f ms hides a %v sink stall", worst, stall)
	}
	late := nearestRank(out.layer.late, 1)
	if late <= 0 {
		t.Fatalf("generator never ran late (max %.1f ms) though the sink stalled", late)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, median(xs))
	}
}
