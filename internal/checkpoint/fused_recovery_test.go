package checkpoint_test

import (
	"errors"
	"fmt"
	"testing"

	"spear/internal/checkpoint/checkpointtest"
	"spear/internal/storage"
)

// TestCrashRecoveryFusedFilter is the identity gate for recovery through
// the fused Map chain: a filtering Map ahead of a windowed stage at
// parallelism 2, with shuffle (scalar) and fields (grouped) routing,
// each on the row and the columnar lane. A crash anywhere in the
// protocol, then recovery, must give the results of an uninterrupted
// row run without checkpoints, values and Mode alike.
//
// The filter makes the routed count differ from the spout offset: of
// the 450 tuples checkpoint 1 covers, 41 are dropped, so the manifest
// records 409 routed tuples — an odd phase at an even offset. A
// recovery that restored the round-robin phase from the offset would
// send every replayed survivor to the other worker.
func TestCrashRecoveryFusedFilter(t *testing.T) {
	ts := testStream(streamN)
	const wantRouted = ckptEvery*(crashAtCkpt-1) - 41
	for _, grouped := range []bool{false, true} {
		ref, err := topo{par: 2, grouped: grouped, filter: true}.run(ts, storage.NewMemStore(), nil)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if len(ref) == 0 {
			t.Fatal("reference run produced no results")
		}
		for _, columnar := range []bool{false, true} {
			for _, point := range []checkpointtest.CrashPoint{
				checkpointtest.PreBarrier, checkpointtest.MidAlignment, checkpointtest.PostSnapshot,
			} {
				tc := topo{par: 2, grouped: grouped, filter: true, columnar: columnar}
				t.Run(fmt.Sprintf("grouped=%v/columnar=%v/%s", grouped, columnar, point), func(t *testing.T) {
					store := storage.NewMemStore()
					inj := &checkpointtest.Injector{Point: point, AtCheckpoint: crashAtCkpt, AtWorker: 0}
					coord := coordFor(t, store, tc.par, inj.AfterPersist())
					partial, err := tc.run(ts, store, inj.Arm(coord.Hooks()))
					if !errors.Is(err, checkpointtest.ErrInjectedCrash) {
						t.Fatalf("crashed run: err = %v, want injected crash", err)
					}

					coord2 := coordFor(t, store, tc.par, nil)
					if found, err := coord2.Recover(); err != nil || !found {
						t.Fatalf("Recover = %v, %v", found, err)
					}
					m, _ := coord2.Restored()
					if m.Offset != ckptEvery*(crashAtCkpt-1) || m.Routed != wantRouted {
						t.Fatalf("recovered offset %d routed %d, want %d and %d",
							m.Offset, m.Routed, ckptEvery*(crashAtCkpt-1), wantRouted)
					}
					resumed, err := tc.run(ts, store, coord2.Hooks())
					if err != nil {
						t.Fatalf("recovery run: %v", err)
					}

					merged := runOutput{}
					for k, v := range partial {
						merged[k] = v
					}
					for k, v := range resumed {
						if prev, dup := merged[k]; dup && !sameResult(prev, v) {
							t.Errorf("replayed window diverged: worker=%d window=%d\n crashed %v\n resumed %v",
								k.worker, k.id, prev, v)
						}
						merged[k] = v
					}
					diffOutputs(t, ref, merged, "merged vs uninterrupted row reference")
				})
			}
		}
	}
}
