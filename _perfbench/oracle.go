package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"spear"
)

// refWindow is the exact answer for one window, computed from the
// generated input outside any timed region.
type refWindow struct {
	n      int64
	sum    float64
	groups map[string]*groupRef // nil for scalar queries
	// closer is the raw input index of the first tuple at or past the
	// window's end: the pull that lets the watermark close it. -1 when
	// only the end of the stream closes it.
	closer int
}

type groupRef struct {
	n   int64
	sum float64
}

// reference holds every window the query must produce, indexed by
// window number k (window k spans [k·slide, k·slide+range)).
type reference struct {
	rangeNs, slideNs int64
	kmin             int64
	wins             []refWindow
	expected         int   // windows holding at least one tuple
	closers          []int // distinct closer indices, ascending
	lastTs           int64 // timestamp of the last input tuple
	hash             uint64
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// buildReference applies the workload's stages to every input tuple
// and accumulates exact per-window (and per-group) counts and sums.
func buildReference(w *workload, in []spear.Tuple) *reference {
	ref := &reference{rangeNs: w.rangeNs, slideNs: w.slideNs}
	if len(in) == 0 {
		return ref
	}
	ref.kmin = floorDiv(in[0].Ts-w.rangeNs, w.slideNs) + 1
	ref.lastTs = in[len(in)-1].Ts
	for _, t := range in {
		s, ok := t, true
		for _, st := range w.stages {
			if s, ok = st(s); !ok {
				break
			}
		}
		if !ok {
			continue
		}
		v := w.value(s)
		var key string
		if w.key != nil {
			key = w.key(s)
		}
		for k := floorDiv(s.Ts-w.rangeNs, w.slideNs) + 1; k <= floorDiv(s.Ts, w.slideNs); k++ {
			for int(k-ref.kmin) >= len(ref.wins) {
				ref.wins = append(ref.wins, refWindow{closer: -1})
			}
			rw := &ref.wins[k-ref.kmin]
			rw.n++
			rw.sum += v
			if w.key != nil {
				if rw.groups == nil {
					rw.groups = map[string]*groupRef{}
				}
				g := rw.groups[key]
				if g == nil {
					g = &groupRef{}
					rw.groups[key] = g
				}
				g.n++
				g.sum += v
			}
		}
	}
	// Closers: windows end in ascending order, so one pass over the
	// raw input finds the first tuple at or past each end.
	i := 0
	for s := range ref.wins {
		if ref.wins[s].n == 0 {
			continue
		}
		ref.expected++
		end := (ref.kmin+int64(s))*w.slideNs + w.rangeNs
		for i < len(in) && in[i].Ts < end {
			i++
		}
		if i < len(in) {
			ref.wins[s].closer = i
			if c := len(ref.closers); c == 0 || ref.closers[c-1] != i {
				ref.closers = append(ref.closers, i)
			}
		}
	}
	ref.hash = ref.digest()
	return ref
}

// digest fingerprints the reference so two commits can show they were
// judged against the same answers.
func (ref *reference) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	for s, rw := range ref.wins {
		put(uint64(ref.kmin + int64(s)))
		put(uint64(rw.n))
		put(math.Float64bits(rw.sum))
		for _, k := range sortedKeys(rw.groups) {
			h.Write([]byte(k))
			put(uint64(rw.groups[k].n))
			put(math.Float64bits(rw.groups[k].sum))
		}
	}
	return h.Sum64()
}

// inputDigest fingerprints the generated input.
func inputDigest(in []spear.Tuple) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	for _, t := range in {
		put(uint64(t.Ts))
		for _, v := range t.Vals {
			put(uint64(v.Kind()))
			if v.Kind() == spear.KindString {
				h.Write([]byte(v.AsString()))
			} else {
				put(math.Float64bits(v.AsFloat()))
			}
		}
	}
	return h.Sum64()
}

// sinkRec is one window result as the benchmark's sink received it.
type sinkRec struct {
	worker int
	res    spear.Result
	at     time.Time
}

// verdict is the oracle's judgement of one repetition.
type verdict struct {
	windows      int // expected windows
	failed       int // missing, duplicated, or outside the bound they report
	missing      int
	duplicated   int // surplus results
	dupWindows   int // windows that received a surplus result
	contractMiss int
	results      int // window results emitted (one per worker and window)
	accelerated  int // results with Mode != exact
	shed         int // results produced by load shedding (outside the contract)
	// errSum and errN accumulate the realized relative error of
	// accelerated answers held to the contract (shed answers excluded):
	// per window for scalar queries, per group for grouped ones.
	errSum float64
	errN   int
	// last holds, per window slot, the arrival of its last result (zero
	// when missing).
	last []time.Time
}

// structuralError is a result the engine cannot have produced
// correctly under any sampling outcome: it fails the run.
type structuralError struct{ msg string }

func (e *structuralError) Error() string { return "structural mismatch: " + e.msg }

func structural(format string, args ...any) error {
	return &structuralError{fmt.Sprintf(format, args...)}
}

// bound is the error a result claims: ε when it honours the contract,
// its reported realized bound when shedding produced it.
func bound(r spear.Result) float64 {
	if r.ContractMet() {
		return r.Epsilon
	}
	return r.EstError
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// exceeds reports a realized error above its bound, allowing float
// rounding on exact answers.
func exceeds(err, b float64) bool { return err > b*(1+1e-9)+1e-12 }

// check judges one repetition's results. Results are compared in ways
// routing cannot change: per window, ΣN over the workers must equal
// the generated count; scalar windows combine the worker means
// weighted by N, grouped windows are compared group by group.
func (ref *reference) check(recs []sinkRec) (verdict, error) {
	v := verdict{windows: ref.expected, last: make([]time.Time, len(ref.wins))}
	type part struct {
		byWorker map[int]bool
		recs     []*sinkRec
		dup      bool
	}
	parts := make([]part, len(ref.wins))
	for i := range recs {
		r := &recs[i]
		k := floorDiv(r.res.Start, ref.slideNs)
		s := k - ref.kmin
		if r.res.Start != k*ref.slideNs || r.res.End != r.res.Start+ref.rangeNs ||
			s < 0 || int(s) >= len(ref.wins) || ref.wins[s].n == 0 {
			return v, structural("unknown window [%d,%d) from worker %d", r.res.Start, r.res.End, r.worker)
		}
		v.results++
		if r.res.Mode.Accelerated() {
			v.accelerated++
		}
		if !r.res.ContractMet() {
			v.shed++
		}
		p := &parts[s]
		if p.byWorker == nil {
			p.byWorker = map[int]bool{}
		}
		if p.byWorker[r.worker] {
			v.duplicated++
			p.dup = true
			continue
		}
		p.byWorker[r.worker] = true
		p.recs = append(p.recs, r)
		if r.at.After(v.last[s]) {
			v.last[s] = r.at
		}
	}
	for s := range ref.wins {
		rw := &ref.wins[s]
		if rw.n == 0 {
			continue
		}
		p := &parts[s]
		if len(p.recs) == 0 {
			v.missing++
			v.failed++
			continue
		}
		var n int64
		for _, r := range p.recs {
			n += r.res.N
		}
		if n != rw.n {
			return v, structural("window %d: ΣN=%d over %d results, generated %d", ref.kmin+int64(s), n, len(p.recs), rw.n)
		}
		ok, err := ref.judge(rw, p.recs, &v)
		if err != nil {
			return v, fmt.Errorf("window %d: %w", ref.kmin+int64(s), err)
		}
		if p.dup {
			v.dupWindows++
		}
		if !ok || p.dup {
			v.failed++
		}
	}
	return v, nil
}

// judge compares one window's results with the exact answer and
// accumulates realized errors; it reports whether every result is
// within the bound it claims.
func (ref *reference) judge(rw *refWindow, rs []*sinkRec, v *verdict) (bool, error) {
	if rw.groups == nil {
		var wsum, b float64
		accel, met := false, true
		for _, r := range rs {
			wsum += float64(r.res.N) * r.res.Scalar
			b = math.Max(b, bound(r.res))
			accel = accel || r.res.Mode.Accelerated()
			met = met && r.res.ContractMet()
		}
		e := relErr(wsum/float64(rw.n), rw.sum/float64(rw.n))
		if accel && met {
			v.errSum += e
			v.errN++
		}
		if exceeds(e, b) {
			v.contractMiss++
			return false, nil
		}
		return true, nil
	}
	seen := 0
	ok := true
	for _, r := range rs {
		var esum float64
		for g, got := range r.res.Groups {
			gr := rw.groups[g]
			if gr == nil {
				return false, structural("group %q not in the input", g)
			}
			seen++
			e := relErr(got, gr.sum/float64(gr.n))
			esum += e
			if r.res.Mode.Accelerated() && r.res.ContractMet() {
				v.errSum += e
				v.errN++
			}
		}
		if len(r.res.Groups) > 0 && exceeds(esum/float64(len(r.res.Groups)), bound(r.res)) {
			v.contractMiss++
			ok = false
		}
	}
	if seen != len(rw.groups) {
		return false, structural("%d group answers for %d groups", seen, len(rw.groups))
	}
	return ok, nil
}
