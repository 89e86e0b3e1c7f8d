package flightrec_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asdsim/internal/obs"
	"asdsim/internal/obs/flightrec"
)

// spikes is a synthetic run of five 1000-cycle windows: a bank-conflict
// storm in window 1 and a late-prefetch spike in window 3. After
// window w's events it calls after(w), when after is not nil.
func spikes(s obs.Sink, after func(w int)) {
	for w := range 5 {
		start := uint64(w) * 1000
		switch w {
		case 1:
			for i := range uint64(8) {
				s.Emit(obs.Event{Kind: obs.KindMCIssue, Cycle: start + i})
				s.Emit(obs.Event{Kind: obs.KindMCBankConflict, Cycle: start + i})
			}
		case 3:
			emitWindow(s, start, 2, 8, 1)
		default:
			emitWindow(s, start, 8, 0, 1)
		}
		if after != nil {
			after(w)
		}
	}
}

func spikeOptions() flightrec.Options {
	return flightrec.Options{Label: "spikes", WindowCycles: 1000, Detectors: []flightrec.Detector{
		&flightrec.LatePrefetchSpike{Ratio: 0.5, MinUseful: 4},
		&flightrec.BankConflictStorm{MinConflicts: 4, IssueFrac: 0.5},
	}}
}

// replaySpikes replays spikes for want, the run returning runErr.
func replaySpikes(want []flightrec.Trigger, runErr error) ([]*flightrec.Bundle, error) {
	return flightrec.Replay(context.Background(), spikeOptions(), want,
		func(_ context.Context, sink obs.Sink) error {
			spikes(sink, nil)
			return runErr
		})
}

// The wanted triggers' bundles come back in the order asked for, each
// captured at its own window; a trigger not asked for is not bundled,
// and wanting none runs nothing.
func TestReplayReturnsWantedInOrder(t *testing.T) {
	live := record(spikeOptions(), func(s obs.Sink) { spikes(s, nil) })
	if len(live) != 2 || live[0].Detector != "bank-conflict-storm" || live[0].Window != 1 ||
		live[1].Detector != "late-prefetch-spike" || live[1].Window != 3 {
		t.Fatalf("live triggers = %+v, want a storm at window 1 and a late spike at window 3", live)
	}
	for _, want := range [][]flightrec.Trigger{live, {live[1], live[0]}, {live[1]}} {
		bundles, err := replaySpikes(want, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(bundles) != len(want) {
			t.Fatalf("want %d bundles, got %d", len(want), len(bundles))
		}
		for i, b := range bundles {
			last := b.Windows[len(b.Windows)-1]
			if b.Trigger != want[i] || last.Index != want[i].Window {
				t.Errorf("bundle %d = %+v captured at window %d, want %+v", i, b.Trigger, last.Index, want[i])
			}
		}
	}
	ran := false
	bundles, err := flightrec.Replay(context.Background(), spikeOptions(), nil,
		func(context.Context, obs.Sink) error { ran = true; return nil })
	if bundles != nil || err != nil || ran {
		t.Errorf("a replay wanting nothing returned %v, %v and ran=%v", bundles, err, ran)
	}
}

// The run's context is cancelled right after the last wanted capture:
// the first event of window 2 closes window 1, whose storm is the last
// trigger wanted, and not before.
func TestReplayCancelsAfterLastCapture(t *testing.T) {
	live := record(spikeOptions(), func(s obs.Sink) { spikes(s, nil) })
	var stoppedAfter []int
	bundles, err := flightrec.Replay(context.Background(), spikeOptions(), live[:1],
		func(ctx context.Context, sink obs.Sink) error {
			spikes(sink, func(w int) {
				if ctx.Err() != nil {
					stoppedAfter = append(stoppedAfter, w)
				}
			})
			return ctx.Err()
		})
	if err != nil || len(bundles) != 1 {
		t.Fatalf("replay = %d bundles, %v; want the storm's bundle", len(bundles), err)
	}
	if len(stoppedAfter) == 0 || stoppedAfter[0] != 2 {
		t.Fatalf("context cancelled after windows %v, want first after window 2", stoppedAfter)
	}
}

// A wanted trigger the replay does not reproduce is an error naming it,
// and no bundle comes back for the triggers that did recur.
func TestReplayNamesUnreproducedTrigger(t *testing.T) {
	live := record(spikeOptions(), func(s obs.Sink) { spikes(s, nil) })
	moved := live[1]
	moved.Window, moved.Cycle = 4, 4000
	bundles, err := replaySpikes([]flightrec.Trigger{live[0], moved}, nil)
	if bundles != nil || err == nil || !strings.Contains(err.Error(), "did not reproduce late-prefetch-spike at window 4") {
		t.Fatalf("replay = %v, %v; want an error naming late-prefetch-spike at window 4", bundles, err)
	}
}

// A run that fails after the last wanted capture has still built its
// bundles; one that fails before it is an error that names the trigger
// and wraps the run's error.
func TestReplayRunErrors(t *testing.T) {
	live := record(spikeOptions(), func(s obs.Sink) { spikes(s, nil) })
	boom := errors.New("boom")
	if bundles, err := replaySpikes(live, boom); err != nil || len(bundles) != 2 {
		t.Errorf("a run failing after its captures: %d bundles, %v; want both bundles", len(bundles), err)
	}
	bundles, err := flightrec.Replay(context.Background(), spikeOptions(), live,
		func(_ context.Context, sink obs.Sink) error {
			// Fails in window 3, whose spike is the last trigger wanted.
			emitWindow(sink, 0, 8, 0, 1)
			for i := range uint64(8) {
				sink.Emit(obs.Event{Kind: obs.KindMCIssue, Cycle: 1000 + i})
				sink.Emit(obs.Event{Kind: obs.KindMCBankConflict, Cycle: 1000 + i})
			}
			emitWindow(sink, 2000, 8, 0, 1)
			emitWindow(sink, 3000, 2, 8, 1)
			return boom
		})
	if bundles != nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "stopped before late-prefetch-spike at window 3") {
		t.Fatalf("a run failing before its last capture: %v, %v; want an error naming late-prefetch-spike at window 3 and wrapping the run's", bundles, err)
	}
}

// A replay armed with a live run's detectors starts them afresh: the
// live run leaves its CAQ-saturation detector three saturated windows
// into a run, which would trip it at the replay's first window.
func TestReplayRearmsDetectors(t *testing.T) {
	opts := flightrec.Options{Label: "caq", WindowCycles: 100, Detectors: []flightrec.Detector{
		&flightrec.CAQSaturation{Capacity: 3, MeanFrac: 0.9, Consecutive: 3},
	}}
	stream := func(s obs.Sink) {
		for w := range uint64(5) {
			s.Emit(obs.Event{Kind: obs.KindMCQueues, Cycle: 100 * w, V2: 3})
			s.Emit(obs.Event{Kind: obs.KindMCQueues, Cycle: 100*w + 50, V2: 3})
		}
	}
	live := record(opts, stream)
	if len(live) != 1 || live[0].Window != 2 {
		t.Fatalf("live triggers = %+v, want caq-saturation at window 2", live)
	}
	bundles, err := flightrec.Replay(context.Background(), opts, live,
		func(_ context.Context, sink obs.Sink) error {
			stream(sink)
			return nil
		})
	if err != nil || len(bundles) != 1 || bundles[0].Trigger != live[0] {
		t.Fatalf("replay = %v, %v; want the window-2 bundle", bundles, err)
	}
}
