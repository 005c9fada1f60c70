package sim

import (
	"errors"
	"fmt"
)

// ErrStopped marks a run halted by Config.Control: both engines return an
// error wrapping it (and the hook's own error) when the hook asks for a
// stop at a generation boundary. A stopped run is not a fault — the
// restart supervisor returns it unchanged instead of restarting — and when
// a CheckpointSink is configured the engine persists a resume snapshot
// first, so the caller can continue the trajectory bit-identically via
// Config.Resume (the contract pause/resume in a job service builds on).
var ErrStopped = errors.New("sim: run stopped by control hook")

// stop finalises a control-initiated stop at the top of generation gen: it
// persists a resume snapshot (when a sink is configured, carrying the
// series sampled so far under cfg.CheckpointSeries) and returns the run's
// stop error. The engines return it alongside the partial Result.
func (n *nature) stop(gen int, cause error) error {
	if n.cfg.CheckpointSink != nil {
		if err := n.save(gen); err != nil {
			return fmt.Errorf("sim: stop snapshot at generation %d: %w (stop cause: %w)", gen, err, cause)
		}
	}
	return fmt.Errorf("sim: run stopped at generation %d: %w: %w", gen, ErrStopped, cause)
}
