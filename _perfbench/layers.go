package main

import (
	"fmt"
	"time"

	"spear"
)

// perLayer turns the traced repetitions and the replay drivers into the
// per-layer metrics. Counts are per repetition (one pass over the
// input); a layer the workload does not use reads 0. It also returns
// each span kind's total self time in milliseconds, for the record.
func perLayer(w *workload, in []spear.Tuple, reps, treps []*repOut, tr *tracer) (map[string]metricVal, map[string]float64, error) {
	rp, err := replay(w, in, tr)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]metricVal{}
	set := func(name, unit string, v float64) { m[name] = metricVal{v, unit} }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nr := float64(len(treps))

	// Engine-side spans (parent 0) of the traced repetitions.
	var cnt, dur, moved [numKinds]float64
	self := tr.selfTimes()
	selfMs := map[string]float64{}
	for _, s := range tr.spans {
		selfMs[kindNames[s.kind]] += float64(self[s.id]) / 1e6
		if s.parent != 0 || s.kind > kConnWrite {
			continue
		}
		cnt[s.kind]++
		dur[s.kind] += float64(s.end - s.start)
		moved[s.kind] += float64(s.n)
	}

	var tuples, pulls, gapNs float64
	var fillSum, fillMax float64
	var fillN int
	var wmLag int64
	var late []float64
	var occSum, occCount float64
	var spillHits, spillMiss, pfIssued, pfHits, bpWaits float64
	var txFrames, reconnects, transitions float64
	var shedTuples, shedWins float64
	var procMean, procP95, state float64
	var ckCount, ckSnapNs, ckStallNs, ckBytes float64
	var budgetSum, budgetN float64
	budgetMin := 0
	for _, r := range treps {
		lr := r.layer
		tuples += float64(r.tuples)
		pulls += float64(lr.pulls)
		gapNs += float64(lr.gapNs)
		fillSum += lr.fillSum
		fillN += lr.fillN
		fillMax = max(fillMax, lr.fillMax)
		wmLag = max(wmLag, lr.wmLagMax)
		late = append(late, lr.late...)
		s := lr.final
		occSum += float64(s.Occupancy.Sum)
		occCount += float64(s.Occupancy.Count)
		if sp := s.SpillPlane; sp != nil {
			spillHits += float64(sp.CacheHits)
			spillMiss += float64(sp.CacheMisses)
			pfIssued += float64(sp.PrefetchIssued)
			pfHits += float64(sp.PrefetchHits)
			bpWaits += float64(sp.BackpressureWaits)
		}
		for _, t := range s.Transport {
			txFrames += float64(t.TxFrames)
			reconnects += float64(t.Reconnects)
		}
		if c := s.Control; c != nil {
			transitions += float64(c.Tighten + c.Expand + c.ShedOn + c.ShedOff)
		}
		for _, wk := range lr.reg.Workers() {
			shedTuples += float64(wk.TuplesShed.Load())
			shedWins += float64(wk.WindowsShed.Load())
		}
		sum := lr.reg.Summarize()
		procMean += float64(sum.MeanProcTime)
		procP95 += float64(sum.P95ProcTime)
		state += sum.MeanMemBytes
		ck := lr.ckpt
		ckCount += float64(ck.Completed.Load())
		ckSnapNs += ck.SnapshotTime.Sum()
		ckStallNs += ck.AlignStall.Sum()
		ckBytes += float64(ck.SnapshotBytes.Load())
		for _, b := range r.budgets {
			budgetSum += float64(b)
			budgetN++
			if budgetMin == 0 || b < budgetMin {
				budgetMin = b
			}
		}
	}

	pullNs := pullCost(w, in)
	set("dataset.pull_ns_per_tuple", "ns", pullNs)
	lateP95 := 0.0
	if w.open {
		lateP95 = nearestRank(late, 0.95)
	}
	set("dataset.gen_late_ms_p95", "ms", lateP95)
	set("spe.spout_gap_ns_per_tuple", "ns", div(gapNs, pulls)-pullNs)
	for i := 0; i < maxStages-1; i++ {
		set(fmt.Sprintf("spe.map.s%d.ns_per_call", i+1), "ns", div(float64(rp.stageNs[i]), float64(rp.stageCalls[i])))
		set(fmt.Sprintf("spe.map.s%d.calls", i+1), "count", float64(rp.stageCalls[i]))
	}
	set("spe.edge_fill_mean", "ratio", div(fillSum, float64(fillN)))
	set("spe.edge_fill_max", "ratio", fillMax)
	set("spe.batch_occupancy_mean", "count", div(occSum, occCount))
	set("spe.wm_lag_ms_max", "ms", float64(wmLag)/1e6)
	set("spe.sink_ns_per_result", "ns", div(dur[kSink], cnt[kSink]))

	set("core.ingest_ns_per_tuple", "ns", div(float64(rp.ingestSelfNs), float64(rp.tuples)))
	set("core.ingest_allocs_per_tuple", "count", div(float64(rp.ingestAllocs), float64(rp.tuples)))
	set("core.col_ingest_ns_per_tuple", "ns", div(float64(rp.colIngestSelfNs), float64(rp.tuples)))
	set("core.fire_sampled_us", "us", div(rp.fireAccelNs, float64(rp.fireAccelN))/1e3)
	set("core.fire_exact_us", "us", div(rp.fireExactNs, float64(rp.fireExactN))/1e3)
	set("core.proc_time_mean_ms", "ms", div(procMean, nr)/1e6)
	set("core.proc_time_p95_ms", "ms", div(procP95, nr)/1e6)
	set("core.state_bytes_per_worker", "B", div(state, nr))
	set("col.setrows_ns_per_tuple", "ns", div(float64(rp.setRowsNs), float64(rp.tuples)))
	set("tuple.encode_ns_per_tuple", "ns", div(float64(rp.tupleEncNs), float64(rp.codecTuples)))
	set("tuple.decode_ns_per_tuple", "ns", div(float64(rp.tupleDecNs), float64(rp.codecTuples)))

	set("storage.store_calls", "count", div(cnt[kStore], nr))
	set("storage.store_tuples_per_call", "count", div(moved[kStore], cnt[kStore]))
	set("storage.store_us_per_call", "us", div(dur[kStore], cnt[kStore])/1e3)
	set("storage.get_calls", "count", div(cnt[kGet], nr))
	set("storage.get_tuples", "count", div(moved[kGet], nr))
	set("storage.get_us_per_call", "us", div(dur[kGet], cnt[kGet])/1e3)
	set("spill.cache_hit_frac", "ratio", div(spillHits, spillHits+spillMiss))
	set("spill.prefetch_hit_frac", "ratio", div(pfHits, pfIssued))
	set("spill.backpressure_waits", "count", div(bpWaits, nr))

	set("transport.encode_ns_per_tuple", "ns", div(float64(rp.frameEncNs), float64(rp.codecTuples)))
	set("transport.decode_ns_per_tuple", "ns", div(float64(rp.frameDecNs), float64(rp.codecTuples)))
	set("transport.decode_allocs_per_tuple", "count", div(float64(rp.frameDecAllocs), float64(rp.codecTuples)))
	set("transport.wire_bytes_per_tuple", "B", div(moved[kConnRead]+moved[kConnWrite], tuples))
	set("transport.conn_reads", "count", div(cnt[kConnRead], nr))
	set("transport.tx_frames", "count", div(txFrames, nr))
	set("transport.reconnects", "count", div(reconnects, nr))

	set("control.budget_mean", "count", div(budgetSum, budgetN))
	set("control.budget_min", "count", float64(budgetMin))
	set("control.tuples_shed_frac", "ratio", div(shedTuples, tuples))
	set("control.windows_shed", "count", div(shedWins, nr))
	set("control.transitions", "count", div(transitions, nr))

	set("checkpoint.count", "count", div(ckCount, nr))
	set("checkpoint.snapshot_ms_mean", "ms", div(ckSnapNs, ckCount)/1e6)
	set("checkpoint.align_stall_ms", "ms", div(ckStallNs, ckCount)/1e6)
	set("checkpoint.bytes_mean", "B", div(ckBytes, ckCount))

	set("runtime.gc_cpu_frac", "ratio", gcFrac(reps))
	set("runtime.peak_live_heap_bytes", "B", peakLive(reps))
	cpuU, tpsU := cpuPerMTuple(reps), medianTPS(reps)
	cpuT, tpsT := cpuPerMTuple(treps), medianTPS(treps)
	set("trace.overhead_frac", "ratio", div(cpuT, cpuU)-1)
	set("trace.overhead_tps_frac", "ratio", div(tpsU, tpsT)-1)
	return m, selfMs, nil
}

// gcFrac is the share of busy CPU the collector took over untraced
// repetitions (idle-time marking excluded on both sides).
func gcFrac(reps []*repOut) float64 {
	var gc, busy float64
	for _, r := range reps {
		gc += r.gcCPU
		busy += r.busyCPU
	}
	if busy == 0 {
		return 0
	}
	return gc / busy
}

// pullCost replays the benchmark's source function over the input in a
// tight loop, off the engine, with the closed loop's bookkeeping: the
// source's own work per pull, which the engine's runs pay too.
func pullCost(w *workload, in []spear.Tuple) float64 {
	f := newFeeder(in, buildReference(w, in[:0]), false, false)
	t0 := time.Now()
	for {
		if _, ok := f.next(); !ok {
			break
		}
	}
	return float64(time.Since(t0)) / float64(len(in))
}

// peakLive is the median over untraced repetitions of the largest live
// heap a GC cycle found during the repetition, above the live heap
// measured after the input was generated.
func peakLive(reps []*repOut) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = float64(r.peakLive)
	}
	return median(xs)
}

func cpuPerMTuple(reps []*repOut) float64 {
	var cpu time.Duration
	var n int
	for _, r := range reps {
		cpu += r.cpu
		n += r.tuples
	}
	return cpu.Seconds() / float64(n) * 1e6
}

func medianTPS(reps []*repOut) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = float64(r.tuples) / r.busy.Seconds()
	}
	return median(xs)
}
