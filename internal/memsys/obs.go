package memsys

import (
	"fmt"

	"hmtx/internal/obs"
)

// SetTracer installs the event tracer (nil disables tracing). Every emit site
// in this package is behind an Enabled guard, so a nil tracer costs one
// predictable branch per site (enforced by the tracegate analyzer).
func (h *Hierarchy) SetTracer(t *obs.Tracer) { h.tracer = t }

// Tracer returns the installed tracer (possibly nil).
func (h *Hierarchy) Tracer() *obs.Tracer { return h.tracer }

// latencyBounds buckets operation latencies: an L1 hit, a bus transfer, an
// L2 hit, a memory round trip, and everything slower.
var latencyBounds = []uint64{4, 16, 64, 256, 1024}

// Register mounts the hierarchy's statistics under prefix in r:
// per-cache hit counters, every Stats field, derived hit-rate scalars, and
// load/store latency histograms (which only fill while registered).
func (h *Hierarchy) Register(r *obs.Registry, prefix string) {
	g := r.Group(prefix)
	for i, l1 := range h.l1s {
		l1 := l1
		g.Group(fmt.Sprintf("l1[%d]", i)).CounterFunc("hits", "requests served by this L1", func() uint64 { return l1.hits })
	}
	g.Group("l2").CounterFunc("hits", "requests served by the shared L2", func() uint64 { return h.l2.hits })

	s := &h.stats
	g.CounterFunc("l1_hits", "requests served by the local L1", func() uint64 { return s.L1Hits })
	g.CounterFunc("peer_transfers", "requests served by a peer L1 over the bus", func() uint64 { return s.PeerTransfers })
	g.CounterFunc("l2_hits", "requests served by the shared L2", func() uint64 { return s.L2Hits })
	g.CounterFunc("mem_reads", "line fills from main memory", func() uint64 { return s.MemReads })
	g.CounterFunc("mem_writes", "line writebacks to main memory", func() uint64 { return s.MemWrites })
	g.CounterFunc("bus_messages", "broadcast requests on the L1-L2 bus", func() uint64 { return s.BusMessages })
	g.CounterFunc("spec_loads", "speculative loads executed (correct path)", func() uint64 { return s.SpecLoads })
	g.CounterFunc("spec_stores", "speculative stores executed", func() uint64 { return s.SpecStores })
	g.CounterFunc("wrong_path_loads", "squashed branch-speculative loads (§5.1)", func() uint64 { return s.WrongPathLoads })
	g.CounterFunc("versions_created", "new speculative line versions created", func() uint64 { return s.VersionsCreated })
	g.CounterFunc("slas_sent", "speculative load acknowledgments sent (§5.1)", func() uint64 { return s.SLAsSent })
	g.CounterFunc("avoided_aborts", "false misspeculations avoided by SLAs (Table 1)", func() uint64 { return s.AvoidedAborts })
	g.CounterFunc("so_writebacks", "non-speculative S-O lines overflowed to memory (§5.4)", func() uint64 { return s.SOWritebacks })
	g.CounterFunc("overflow_aborts", "aborts forced by speculative LLC overflow (§5.4)", func() uint64 { return s.OverflowAborts })
	g.CounterFunc("forced_evicts", "evictions injected by Hierarchy.Evict (model checker)", func() uint64 { return s.ForcedEvicts })
	g.CounterFunc("commits", "transaction group commits (LC VID advances)", func() uint64 { return s.Commits })
	g.CounterFunc("aborts", "abort sweeps", func() uint64 { return s.Aborts })
	g.CounterFunc("vid_resets", "VID epoch resets (§4.6)", func() uint64 { return s.VIDResets })

	g.Scalar("l1_hit_rate", "fraction of requests served by the local L1", func() float64 {
		total := s.L1Hits + s.PeerTransfers + s.L2Hits + s.MemReads
		return float64(s.L1Hits) / float64(total)
	})

	h.histLoadLat = g.Histogram("load_latency", "load latency in cycles", latencyBounds)
	h.histStoreLat = g.Histogram("store_latency", "store latency in cycles", latencyBounds)
}

// AddObsHistCkpts adds the hierarchy's registry-histogram state to dst under
// prefix, for hmtx-ckpt/v2 checkpoints (DESIGN.md §18). A no-op when no
// registry is attached.
func (h *Hierarchy) AddObsHistCkpts(prefix string, dst map[string]obs.HistCkpt) {
	if h.histLoadLat == nil {
		return
	}
	dst[prefix+"load_latency"] = h.histLoadLat.Ckpt()
	dst[prefix+"store_latency"] = h.histStoreLat.Ckpt()
}

// RestoreObsHistCkpts restores the hierarchy's registry-histogram state from
// a checkpoint. Register must have been called first.
func (h *Hierarchy) RestoreObsHistCkpts(prefix string, src map[string]obs.HistCkpt) error {
	if h.histLoadLat == nil {
		return fmt.Errorf("memsys: RestoreObsHistCkpts before Register")
	}
	for _, e := range []struct {
		name string
		h    *obs.Histogram
	}{
		{"load_latency", h.histLoadLat},
		{"store_latency", h.histStoreLat},
	} {
		ck, ok := src[prefix+e.name]
		if !ok {
			return fmt.Errorf("memsys: checkpoint is missing histogram %s%s", prefix, e.name)
		}
		if err := e.h.RestoreCkpt(ck); err != nil {
			return err
		}
	}
	return nil
}
