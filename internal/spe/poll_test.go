package spe

import (
	"fmt"
	"testing"

	"spear/internal/agg"
	"spear/internal/core"
	"spear/internal/leakcheck"
	"spear/internal/tuple"
	"spear/internal/window"
)

// TestSpoutPollsTriggerAtRequestedOffsets: the spout calls Trigger only
// at the offsets Trigger asked for, so the poll count grows with
// checkpoint rounds and batches, never with tuples. (The hotloop lint
// cannot see through the Trigger func field into the coordinator,
// which is how a per-tuple mutex once reached the spout.) Each poll
// must also report how many of the first offset tuples survived the
// Map chain.
func TestSpoutPollsTriggerAtRequestedOffsets(t *testing.T) {
	leakcheck.Check(t)
	const n = 20_000
	in := make([]tuple.Tuple, n)
	for i := range in {
		in[i] = tuple.New(int64(i), tuple.Float(1))
	}
	dropEvery7 := func(t tuple.Tuple) (tuple.Tuple, bool) { return t, t.Ts%7 != 0 }
	for _, step := range []int64{1, 64, 2500} {
		t.Run(fmt.Sprintf("step%d", step), func(t *testing.T) {
			var polls, fires, snapshots int
			var lastFire int64
			var bad []string
			hooks := &CheckpointHooks{
				// Fire every 2500 tuples; between rounds ask to be
				// polled again step tuples on, as the coordinator does
				// while a round is pending.
				Trigger: func(offset, routed int64) (uint64, bool, int64, error) {
					polls++
					if want := offset - (offset+6)/7; routed != want {
						bad = append(bad, fmt.Sprintf("offset %d: routed %d, want %d", offset, routed, want))
					}
					if offset-lastFire >= 2500 {
						lastFire = offset
						fires++
						return uint64(fires), true, offset + step, nil
					}
					return 0, false, offset + step, nil
				},
				Snapshot: func(uint64, int, core.Manager) error {
					snapshots++
					return nil
				},
			}
			tp := NewTopology(Config{WatermarkPeriod: 1000, Checkpoint: hooks}).
				SetSpout(NewSliceSpout(in)).
				AddMap("filter", dropEvery7).
				SetWindowed("sum", 1, nil, scalarFactory(agg.Func{Op: agg.Sum}, window.Tumbling(1000), 10)).
				SetSink(func(int, core.Result) {})
			if err := tp.Run(); err != nil {
				t.Fatal(err)
			}
			// Polls at offsets 0, step, 2·step, …, n (the poll before
			// the spout reports end of stream).
			if want := int(n/step) + 1; polls != want {
				t.Errorf("%d polls over %d tuples, want %d", polls, n, want)
			}
			if fires == 0 || snapshots != fires {
				t.Errorf("%d snapshots for %d barriers", snapshots, fires)
			}
			for _, b := range bad {
				t.Error(b)
			}
		})
	}
}
