package metrics

import "fmt"

// Checkpoint support (hmtx-ckpt/v2, DESIGN.md §18) for the three metric
// instruments. Each instrument serialises its full accumulated state so a
// resumed run's final documents are byte-identical to the uninterrupted
// run's. Probes are closures over live counters and cannot be serialised;
// the restoring caller re-registers them (in the same fixed order the
// capturing caller used) before restoring the sampled rows.

// SamplerCkpt is the time-series sampler section of a checkpoint.
type SamplerCkpt struct {
	Window int64      `json:"window"`
	Next   int64      `json:"next"`
	Probes []string   `json:"probes,omitempty"`
	Cycles []int64    `json:"cycles,omitempty"`
	Cols   [][]uint64 `json:"cols,omitempty"`
}

// CaptureCkpt snapshots the sampler: its window position and every sampled
// row, with probe names recorded for restore-time validation.
func (s *Sampler) CaptureCkpt() SamplerCkpt {
	ck := SamplerCkpt{
		Window: s.window,
		Next:   s.next,
		Cycles: append([]int64(nil), s.cycles...),
	}
	for i := range s.probes {
		ck.Probes = append(ck.Probes, s.probes[i].name)
		ck.Cols = append(ck.Cols, append([]uint64(nil), s.cols[i]...))
	}
	return ck
}

// RestoreCkpt overwrites the sampler's window position and rows. It must be
// called after the caller has re-registered the probes (Probe panics once
// rows exist), and the registered probe names must match the checkpoint's —
// the columns are index-aligned with them.
func (s *Sampler) RestoreCkpt(ck SamplerCkpt) error {
	if len(s.cycles) > 0 {
		return fmt.Errorf("metrics: RestoreCkpt on a sampler that already sampled")
	}
	if s.window != ck.Window {
		return fmt.Errorf("metrics: checkpoint window %d, sampler window %d", ck.Window, s.window)
	}
	if len(s.probes) != len(ck.Probes) {
		return fmt.Errorf("metrics: checkpoint has %d probes, sampler has %d", len(ck.Probes), len(s.probes))
	}
	for i := range s.probes {
		if s.probes[i].name != ck.Probes[i] {
			return fmt.Errorf("metrics: probe %d is %q in checkpoint, %q in sampler", i, ck.Probes[i], s.probes[i].name)
		}
	}
	if len(ck.Cols) != len(ck.Probes) {
		return fmt.Errorf("metrics: checkpoint probe/column tables are not index-aligned")
	}
	s.next = ck.Next
	s.cycles = append([]int64(nil), ck.Cycles...)
	for i := range s.cols {
		s.cols[i] = append([]uint64(nil), ck.Cols[i]...)
	}
	return nil
}

// RecorderCkpt is the conflict-recorder section of a checkpoint.
type RecorderCkpt struct {
	Window int64  `json:"window"`
	Now    int64  `json:"now"`
	Edges  []Edge `json:"edges,omitempty"`
}

// CaptureCkpt snapshots the recorder: its cascade window, time stamp and
// every recorded edge.
func (r *Recorder) CaptureCkpt() RecorderCkpt {
	return RecorderCkpt{
		Window: r.window,
		Now:    r.now,
		Edges:  append([]Edge(nil), r.edges...),
	}
}

// RestoreCkpt overwrites a fresh recorder with checkpointed state.
func (r *Recorder) RestoreCkpt(ck RecorderCkpt) error {
	if len(r.edges) > 0 {
		return fmt.Errorf("metrics: RestoreCkpt on a recorder that already recorded")
	}
	if r.window != ck.Window {
		return fmt.Errorf("metrics: checkpoint cascade window %d, recorder window %d", ck.Window, r.window)
	}
	r.now = ck.Now
	r.edges = append([]Edge(nil), ck.Edges...)
	for i := range r.edges {
		// KindName is derived; recompute so a hand-edited checkpoint cannot
		// desynchronise the two fields.
		r.edges[i].Kind = kindFromName(r.edges[i].KindName)
		r.edges[i].KindName = r.edges[i].Kind.String()
	}
	return nil
}

func kindFromName(name string) EdgeKind {
	for k := EdgeKind(0); k < numEdgeKinds; k++ {
		if edgeKindNames[k] == name {
			return k
		}
	}
	return numEdgeKinds // String() renders it as kind(N); harmless sentinel
}

// HistCkpt is one histogram's state: sparse non-zero buckets by index plus
// the exact summary counters.
type HistCkpt struct {
	Name   string   `json:"name"`
	Total  uint64   `json:"total"`
	Sum    uint64   `json:"sum"`
	Min    uint64   `json:"min"`
	Max    uint64   `json:"max"`
	Idx    []int    `json:"idx,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
}

// CaptureCkpt snapshots one histogram.
func (h *Hist) CaptureCkpt() HistCkpt {
	ck := HistCkpt{Name: h.name, Total: h.total, Sum: h.sum, Min: h.min, Max: h.max}
	for i := 0; i < histBuckets; i++ {
		if h.counts[i] != 0 {
			ck.Idx = append(ck.Idx, i)
			ck.Counts = append(ck.Counts, h.counts[i])
		}
	}
	return ck
}

// RestoreCkpt overwrites a fresh histogram with checkpointed state.
func (h *Hist) RestoreCkpt(ck HistCkpt) error {
	if h.total != 0 {
		return fmt.Errorf("metrics: RestoreCkpt on a histogram that already observed")
	}
	if h.name != ck.Name {
		return fmt.Errorf("metrics: checkpoint histogram %q, restoring into %q", ck.Name, h.name)
	}
	if len(ck.Idx) != len(ck.Counts) {
		return fmt.Errorf("metrics: histogram %q checkpoint idx/count tables are not index-aligned", ck.Name)
	}
	h.total = ck.Total
	h.sum = ck.Sum
	h.min = ck.Min
	h.max = ck.Max
	for i, idx := range ck.Idx {
		if idx < 0 || idx >= histBuckets {
			return fmt.Errorf("metrics: histogram %q checkpoint bucket index %d out of range", ck.Name, idx)
		}
		h.counts[idx] = ck.Counts[i]
	}
	return nil
}

// LatHistsCkpt is the latency-histogram bundle section of a checkpoint, in
// the bundle's fixed declaration order.
type LatHistsCkpt struct {
	Hists []HistCkpt `json:"hists"`
}

// CaptureCkpt snapshots the bundle.
func (l *LatHists) CaptureCkpt() LatHistsCkpt {
	var ck LatHistsCkpt
	for _, h := range l.All() {
		ck.Hists = append(ck.Hists, h.CaptureCkpt())
	}
	return ck
}

// RestoreCkpt overwrites a fresh bundle with checkpointed state.
func (l *LatHists) RestoreCkpt(ck LatHistsCkpt) error {
	all := l.All()
	if len(ck.Hists) != len(all) {
		return fmt.Errorf("metrics: checkpoint has %d latency histograms, bundle has %d", len(ck.Hists), len(all))
	}
	for i, h := range all {
		if err := h.RestoreCkpt(ck.Hists[i]); err != nil {
			return err
		}
	}
	return nil
}
