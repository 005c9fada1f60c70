package sim

import (
	"repro/internal/mpi"
	"repro/internal/strategy"
)

// This file is the multi-process entry point of the parallel engine: where
// RunParallel hosts every rank as a goroutine of one process, RunWorker
// hosts exactly one rank of a networked world wired by an mpi.NetTransport
// (the egdrun launcher spawns one such process per rank). The rank bodies
// are identical — natureRank and workerRank run unchanged over the wire —
// so a networked run follows the same trajectory, bit for bit, as an
// in-process run of the same Config.

func init() {
	// Register the engine's wire-payload vocabulary with the transport
	// codec. Every type a rank body sends must be registered identically
	// in every worker process (init-time registration guarantees that).
	for _, v := range []any{
		selection{}, update{}, resume{}, RankPhaseSnapshot{},
		&strategy.Pure{}, &strategy.Mixed{},
	} {
		mpi.RegisterWirePayload(v)
	}
}

// RunWorker executes this process's rank of a networked simulation: rank 0
// is the Nature Agent, the rest own block-distributed game pairs, exactly
// as RunParallel. The transport must be freshly created and not yet
// started; RunWorker installs the Config's world options (metrics, fault
// plan, receive deadline, eviction), wires the mesh, and runs the hosted
// rank to completion.
//
// On the Nature process the returned Result is the run's result, assembled
// as in RunParallel except that communication and transport metrics are
// this process's view of the wire (per-process accounting; see
// docs/TRANSPORT.md); on a control stop it is the partial Result, returned
// with the ErrStopped error as RunParallel does. Worker processes return
// (nil, nil) on success.
func RunWorker(cfg Config, t *mpi.NetTransport) (*Result, error) {
	if err := checkRanks(&cfg, t.Size()); err != nil {
		return nil, err
	}
	world := mpi.NewNetWorld(t)
	return runWorld(cfg, world, func(body func(c *mpi.Comm) error) error {
		if err := t.Start(); err != nil {
			return err
		}
		return world.RunLocal(body)
	})
}
