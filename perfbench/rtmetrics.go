package main

import (
	"math"
	"runtime/metrics"
)

// runtimeSample is a reading of the runtime/metrics the per-layer report uses.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	sched      *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = ms[2].Value.Float64Histogram()
	}
	return s
}

// rtDelta is what the runtime did between two readings, per iteration.
type rtDelta struct {
	allocMB, gcCPUs, schedP50us float64
}

func (s runtimeSample) since(before runtimeSample, iters int) rtDelta {
	n := float64(max(iters, 1))
	d := rtDelta{
		allocMB: float64(s.allocBytes-before.allocBytes) / 1e6 / n,
		gcCPUs:  (s.gcCPU - before.gcCPU) / n,
	}
	if s.sched != nil && before.sched != nil && len(s.sched.Counts) == len(before.sched.Counts) {
		counts := make([]uint64, len(s.sched.Counts))
		for i := range counts {
			counts[i] = s.sched.Counts[i] - before.sched.Counts[i]
		}
		d.schedP50us = histQuantile(s.sched.Buckets, counts, 0.5) * 1e6
	}
	return d
}

// histQuantile estimates the q-quantile of a runtime/metrics histogram,
// interpolating linearly inside the bucket that holds it. Buckets has one
// more boundary than counts; an infinite boundary is replaced by the finite
// one beside it.
func histQuantile(buckets []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return buckets[len(buckets)-1]
}
