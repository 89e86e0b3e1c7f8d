package flightrec

import (
	"context"
	"fmt"

	"asdsim/internal/obs"
	"asdsim/internal/stats"
)

// Replay builds the triage bundles of a finished run by running it
// again with a capturing recorder. A run is a deterministic function of
// its spec, and a capturing recorder closes the windows a live one
// does, so every trigger the live recorder reported recurs.
//
// opts are the live recorder's options; New re-arms their detectors.
// want lists triggers that recorder reported, in order. run must run
// the same spec again with sink on its probe bus, and stop when ctx is
// cancelled. Replay cancels ctx once the last wanted trigger is
// bundled, so the replay simulates the run only up to that trigger's
// window; a run that fails or is cancelled after that capture has
// done its work. The bundles come back in want's order. A wanted
// trigger that does not recur is an error naming it.
func Replay(ctx context.Context, opts Options, want []Trigger, run func(ctx context.Context, sink obs.Sink) error) ([]*Bundle, error) {
	if len(want) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	size := 1
	for size < opts.RingSize {
		size <<= 1
	}
	if opts.RingSize <= 0 {
		size = 4096
	}
	r := New(opts)
	r.replay = &capture{
		ring:    make([]obs.Event, size),
		slh:     stats.NewHistogram(slhBuckets),
		want:    want,
		bundles: make([]*Bundle, len(want)),
		left:    len(want),
		stop:    cancel,
	}
	err := run(ctx, r)
	if err == nil {
		// Finish closes the run's last window; a failed run's last
		// window is cut short and is not the run's.
		r.Finish()
	}
	for i, b := range r.replay.bundles {
		if b != nil {
			continue
		}
		tr := want[i]
		if err != nil {
			return nil, fmt.Errorf("flightrec: replay of %s stopped before %s at window %d: %w",
				opts.Label, tr.Detector, tr.Window, err)
		}
		return nil, fmt.Errorf("flightrec: replay of %s did not reproduce %s at window %d (%s)",
			opts.Label, tr.Detector, tr.Window, tr.Detail)
	}
	return r.replay.bundles, nil
}

// take bundles trigger t when the replay wants it, and stops the run
// once every wanted trigger is bundled. It runs at a window's close, so
// the stop runs at most once per replay and never on a live recorder.
func (r *Recorder) take(t Trigger) {
	c := r.replay
	for i, w := range c.want {
		if w != t || c.bundles[i] != nil {
			continue
		}
		c.bundles[i] = r.snapshot(t)
		if c.left--; c.left == 0 {
			c.stop()
		}
		return
	}
}
