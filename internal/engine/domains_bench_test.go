package engine

import (
	"fmt"
	"testing"

	"hmtx/internal/memsys"
	"hmtx/internal/vid"
)

// computeHeavy is the scaling workload for scheduler benchmarks: every core
// alternates private-line loads, computes and learned branches inside
// transactions, with commits as the only cross-core serialisation.
func computeHeavy(nCores, txs int) []Program {
	progs := make([]Program, nCores)
	for i := 0; i < nCores; i++ {
		i := i
		progs[i] = func(e *Env) {
			base := memsys.Addr(0x100000 + i*0x1000)
			e.Load(base)
			for r := 0; r < txs; r++ {
				seq := vid.Seq(r*nCores + i + 1)
				e.Begin(seq)
				e.Store(base, uint64(r))
				for k := 0; k < 40; k++ {
					e.Load(base)
					e.Compute(int64(2 + k%7))
					e.Branch(uint64(i), true)
				}
				e.Commit(seq)
			}
		}
	}
	return progs
}

// parkHeavy is the parking workload for scheduler benchmarks: every
// transaction is one store between Begin and Commit, so almost every commit
// parks for its predecessor, and with as many cores in flight as an epoch has
// VIDs, Begin parks on every VID reset too.
func parkHeavy(nCores, txs int) []Program {
	progs := make([]Program, nCores)
	for i := 0; i < nCores; i++ {
		i := i
		progs[i] = func(e *Env) {
			base := memsys.Addr(0x100000 + i*0x1000)
			for r := 0; r < txs; r++ {
				seq := vid.Seq(r*nCores + i + 1)
				e.Begin(seq)
				e.Store(base, uint64(r))
				e.Commit(seq)
			}
		}
	}
	return progs
}

func benchScheduler(b *testing.B, nCores, domains int, workload func(nCores, txs int) []Program) {
	cfg := DefaultConfig()
	cfg.Mem.Cores = nCores
	cfg.Mem.VIDSpace = vid.Space{Bits: 8}
	cfg.Domains = domains
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(cfg)
		res := s.Run(workload(nCores, 3))
		if res.Aborted {
			b.Fatalf("aborted: %s", res.Cause)
		}
	}
}

func BenchmarkScheduler(b *testing.B) {
	for _, nc := range []int{8, 64} {
		for _, d := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("cores=%d/domains=%d", nc, d), func(b *testing.B) {
				benchScheduler(b, nc, d, computeHeavy)
			})
		}
	}
	b.Run("cores=255/domains=1/park", func(b *testing.B) {
		benchScheduler(b, 255, 1, parkHeavy)
	})
}

// BenchmarkEngineOp is the cost of one engine operation end to end: an L1
// hit issued through Env.Load, including the switch from the program to the
// scheduler and back.
func BenchmarkEngineOp(b *testing.B) {
	s := New(DefaultConfig())
	b.ReportAllocs()
	s.Run([]Program{func(e *Env) {
		e.Load(0x1000) // bring the line into the L1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Load(0x1000)
		}
		b.StopTimer()
	}})
}
