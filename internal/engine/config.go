// Package engine is a deterministic discrete-event simulator of a multicore
// processor running on the HMTX memory hierarchy of internal/memsys.
//
// Workload programs are ordinary Go functions that issue loads, stores,
// computation, branches and HMTX transaction operations through an Env
// handle. Each program runs on one simulated core as a coroutine that yields
// every operation to the scheduler (coro.go). The scheduler resumes one
// program at a time — the runnable core with the earliest clock, from a
// heap — and parks a core that must wait on a wait list until a queue
// operation, commit or abort releases it (sched.go). It serialises all
// memory-system activity and advances per-core cycle counts using the
// latencies of Table 2, so a run's cycle count is a deterministic function
// of the configuration and seed.
//
// The engine also models the processor front end the paper's §5.1 worries
// about: a 2-bit branch predictor whose mispredictions issue squashed
// wrong-path loads, which the memory system filters through speculative load
// acknowledgments (SLAs).
package engine

import "hmtx/internal/memsys"

// Config configures the simulated processor.
type Config struct {
	// Mem is the memory-hierarchy configuration (Table 2 defaults).
	Mem memsys.Config

	// MispredictPenalty is the pipeline refill cost of a branch
	// misprediction, in cycles.
	MispredictPenalty int64

	// WrongPathLoads is how many squashed speculative loads a
	// misprediction issues down the wrong path (§5.1).
	WrongPathLoads int

	// BusOccupancy is how long one bus transaction occupies the shared
	// snoopy bus. Misses from different cores serialise on the bus, so
	// parallel memory-level parallelism is bounded — without this, a
	// multicore run could overlap cold misses perfectly and show
	// super-linear speedups.
	BusOccupancy int64

	// QueueLat is the inter-core latency of the produce/consume queues
	// used by pipeline parallel stages (e.g. produceVID, §3.2).
	QueueLat int64

	// QueueOpCost is the instruction overhead of one produce or consume.
	QueueOpCost int64

	// QueueCap is the capacity of each inter-stage queue; producers
	// stall when it is full, bounding pipeline depth.
	QueueCap int

	// Seed drives the engine's only internal randomness: the choice of
	// wrong-path addresses on mispredictions.
	Seed int64

	// Domains selects the intra-run parallel scheduler (domains.go): the
	// simulated cores are partitioned into this many contiguous groups,
	// each advanced by its own host goroutine inside conservative time
	// quanta derived from Mem (never hard-coded), with results
	// byte-identical to the serial scheduler. 0 or 1 runs the original
	// single-loop scheduler, kept as the reference implementation.
	Domains int
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Mem:               memsys.DefaultConfig(),
		MispredictPenalty: 14,
		WrongPathLoads:    4,
		BusOccupancy:      24,
		QueueLat:          40,
		QueueOpCost:       4,
		QueueCap:          16,
		Seed:              1,
		Domains:           1,
	}
}
