package memsys

import (
	"hmtx/internal/metrics"
	"hmtx/internal/vid"
)

// SetConflicts installs the causal conflict recorder (nil disables it). The
// hierarchy records a who-aborted-whom edge at every point the protocol
// detects misspeculation — the store dependence check (§4.3), SLA replay
// mismatches (§5.1), and speculative overflow past the last-level cache
// (§5.4) — while the engine, which owns simulated time, stamps the recorder's
// clock and contributes software abortMTX edges. Every emit site is behind an
// Enabled guard (enforced by the metricsgate analyzer), so the disabled path
// costs one predictable branch per site.
func (h *Hierarchy) SetConflicts(r *metrics.Recorder) { h.conflicts = r }

// Conflicts returns the installed recorder (possibly nil).
func (h *Hierarchy) Conflicts() *metrics.Recorder { return h.conflicts }

// seqOf widens a hardware VID to its global program-order sequence number
// using the current epoch, so recorded conflict edges stay meaningful across
// VID resets.
func (h *Hierarchy) seqOf(v vid.V) uint64 {
	return uint64(h.cfg.VIDSpace.Join(h.epoch, v))
}

// SpecOccupancy returns the number of cache lines currently in a speculative
// state across every cache. It is a sampling probe, not a fast-path
// operation: each cache recounts only the sets touched since the previous
// call (cache.specCount), so a sample costs in proportion to the traffic
// since the last one, not to the configured cache size. Under MOESI-San the
// maintained totals are also checked against a full scan (invariant 9).
func (h *Hierarchy) SpecOccupancy() uint64 {
	var n uint64
	for _, c := range h.all {
		n += c.specCount()
	}
	if h.cfg.Sanitize {
		if err := h.checkSpecCounts(); err != nil {
			panic(err)
		}
	}
	return n
}
