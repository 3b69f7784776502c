package uwm_test

import (
	"testing"

	"uwm/internal/core"
	"uwm/internal/noise"
	"uwm/internal/trace"
)

// TestCapturedGateAllocs guards the flight-recorded serving path: a
// gate activation whose every event lands in a full flight-recorder
// capture must allocate exactly as often as the same activation with
// no sink attached. Trace text is rendered ahead of time (disassembly
// at program build, timed-read payloads at gate build), so emitting an
// event copies a string header and nothing more.
func TestCapturedGateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		train int
		build func(*core.Machine) (func(a, b int) error, error)
	}{
		{"BP_AND", 4, func(m *core.Machine) (func(a, b int) error, error) {
			g, err := core.NewBPAnd(m)
			if err != nil {
				return nil, err
			}
			return func(a, b int) error { _, err := g.Run(a, b); return err }, nil
		}},
		{"TSX_AND", 0, func(m *core.Machine) (func(a, b int) error, error) {
			g, err := core.NewTSXAnd(m)
			if err != nil {
				return nil, err
			}
			return func(a, b int) error { _, err := g.Run(a, b); return err }, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(sink trace.Sink) float64 {
				m := core.MustNewMachine(core.Options{Seed: 1, TrainIterations: tc.train, Sink: sink})
				run, err := tc.build(m)
				if err != nil {
					t.Fatal(err)
				}
				rng := noise.NewRNG(1)
				return testing.AllocsPerRun(200, func() {
					if err := run(rng.Bit(), rng.Bit()); err != nil {
						t.Fatal(err)
					}
				})
			}
			bare, captured := allocs(nil), allocs(fullCapture())
			if captured != bare {
				t.Errorf("activation allocates %.1f times with a full capture, %.1f with no sink", captured, bare)
			}
		})
	}
}
