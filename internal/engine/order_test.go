package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"hmtx/internal/memsys"
	"hmtx/internal/obs"
	"hmtx/internal/vid"
)

// hashSink streams every trace event into a digest.
type hashSink struct{ h hash.Hash }

func (s hashSink) Emit(e obs.Event) {
	fmt.Fprintf(s.h, "%d %s %s\n", e.Cycle, e.Kind.Category(), e.Describe())
}

func (s hashSink) Close() error { return nil }

// orderScenario drives every way a core can park on a 16-core machine with
// a 2-bit VID space (three transactions per epoch):
//
//   - core 0 feeds sequence numbers through queue 1 (capacity 1, so it
//     parks on produce) to four DSWP workers, cores 1–4, which park on
//     consume, on the epoch reset in Begin, and on out-of-order Commit;
//   - cores 5–8 wait on AwaitCommitted for staggered sequence numbers and
//     then pass tokens through queue 2 to cores 9–10;
//   - cores 9–10 relay those tokens through queue 3 to core 11;
//   - cores 11–15 run computes, private loads and branches first.
//
// The second run aborts explicitly from core 15 while other cores are parked
// on queues and commits; the third re-executes from the commit frontier.
func orderScenario(s *System, n int, abortAt vid.Seq) []Program {
	const work = 4
	base := vid.Seq(s.LastCommitted())
	progs := make([]Program, 16)
	progs[0] = func(e *Env) {
		for i := 1; i <= n; i++ {
			e.Compute(int64(3 + i%5))
			e.Produce(1, uint64(base)+uint64(i))
		}
		e.CloseQueue(1)
	}
	for w := 1; w <= work; w++ {
		w := w
		progs[w] = func(e *Env) {
			for {
				v, ok := e.Consume(1)
				if !ok {
					return
				}
				seq := vid.Seq(v)
				e.Begin(seq)
				a := memsys.Addr(0x10000 + uint64(seq%7)*memsys.LineSize)
				e.Store(a, v)
				e.Load(memsys.Addr(0x20000 + w*memsys.LineSize))
				e.Compute(int64(30*w + int(v%3)*17))
				e.Branch(uint64(w), v%2 == 0)
				e.Commit(seq)
			}
		}
	}
	for a := 5; a <= 8; a++ {
		a := a
		progs[a] = func(e *Env) {
			for k := 0; k < 3; k++ {
				e.AwaitCommitted(base + vid.Seq(1+(a-5)+3*k))
				e.Load(memsys.Addr(0x10000 + a*memsys.LineSize))
				e.Produce(2, uint64(a*10+k))
			}
			if a == 8 {
				e.AwaitCommitted(base + vid.Seq(n))
				e.CloseQueue(2)
			}
		}
	}
	for c := 9; c <= 10; c++ {
		progs[c] = func(e *Env) {
			for {
				v, ok := e.Consume(2)
				if !ok {
					return
				}
				e.Compute(int64(v % 11))
				e.Produce(3, v)
			}
		}
	}
	for c := 11; c <= 15; c++ {
		c := c
		progs[c] = func(e *Env) {
			for k := 0; k < 6; k++ {
				e.Compute(int64(40 + 13*c + k))
				e.Load(memsys.Addr(0x40000 + (c*8+k)*memsys.LineSize))
				e.Branch(uint64(c), k%3 == 0)
			}
			if c == 15 && abortAt != 0 {
				e.AwaitCommitted(abortAt)
				e.Begin(abortAt + 1)
				e.Abort(abortAt + 1)
			}
			if c == 11 {
				// Drain the relay: 12 tokens from cores 5–8.
				for k := 0; k < 12; k++ {
					e.Consume(3)
				}
			}
		}
	}
	return progs
}

// TestSchedulerOrderPinned pins the exact event order of the scheduler:
// every trace event of every category and every debug-hook event, across a
// completed run, an explicitly aborted run and its re-execution, hashed
// against digests taken from the channel-handoff scheduler with full-scan
// wake-ups (before the coroutine engine). Any change to pick order (earliest clock,
// lowest core ID) or to wake order (ascending core ID, repeated until
// nothing changes) moves at least one event.
func TestSchedulerOrderPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.Cores = 16
	cfg.Mem.VIDSpace = vid.Space{Bits: 2}
	cfg.QueueCap = 1
	s := New(cfg)
	tr := obs.NewTracer(obs.CatAll, 0)
	traceH := sha256.New()
	tr.Attach(hashSink{traceH})
	s.SetTracer(tr)
	hookH := sha256.New()
	s.SetDebugHook(func(ev DebugEvent) {
		fmt.Fprintf(hookH, "%d %d %d %s %#x\n", ev.Cycle, ev.Core, ev.Seq, ev.Op, ev.Addr)
	})

	var results []RunResult
	for _, abortAt := range []vid.Seq{0, 14, 0} {
		results = append(results, s.Run(orderScenario(s, 12, abortAt)))
	}
	if !results[1].Aborted || results[0].Aborted || results[2].Aborted {
		t.Fatalf("want only the second run aborted, got %+v", results)
	}
	st := s.Stats()
	if st.CommitStallCycles == 0 || s.Mem.Stats().VIDResets == 0 {
		t.Fatalf("scenario lost its parks: commit stall %d cycles, %d VID resets",
			st.CommitStallCycles, s.Mem.Stats().VIDResets)
	}
	summary := fmt.Sprintf("%+v %+v", results, *st)
	sum := sha256.Sum256([]byte(summary))
	got := map[string]string{
		"trace":   hex.EncodeToString(traceH.Sum(nil)),
		"hook":    hex.EncodeToString(hookH.Sum(nil)),
		"summary": hex.EncodeToString(sum[:]),
	}
	want := map[string]string{
		"trace":   "74db9935aadcd65dbd73dfc2edc3ff4cc8f856a56a9cb0044b3a70e96da8fb40",
		"hook":    "b5c31b5f93da07a2287ddd83c9873a328c8cdbced5b58ed8b43b986f82327cd4",
		"summary": "424874bd8f83b5dab6ad0fe04d93eccff79b5b1ee99cb7eb35b523aeb8b1b240",
	}
	for _, k := range []string{"trace", "hook", "summary"} {
		if got[k] != want[k] {
			t.Errorf("%s digest %s, pinned %s", k, got[k], want[k])
		}
	}
	if t.Failed() {
		t.Logf("summary: %s", summary)
	}
}
