package engine

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// runRecover runs progs and returns the value Run panicked with (nil if it
// returned).
func runRecover(s *System, progs []Program) (r any) {
	defer func() { r = recover() }()
	s.Run(progs)
	return nil
}

// settleGoroutines waits briefly for exiting goroutines (domain workers leave
// asynchronously once their start channel closes) and returns the count.
func settleGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 2000 && n > limit; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// stuckPrograms returns programs that leave cores suspended in every state
// when another program fails: parked on a queue, on the commit sequence and
// on an await, and runnable far in the future.
func stuckPrograms() []Program {
	return []Program{
		func(e *Env) { e.Consume(1) },
		func(e *Env) { e.Commit(3) },
		func(e *Env) { e.AwaitCommitted(9) },
		func(e *Env) {
			e.Compute(1 << 20)
			e.Load(0x100)
		},
	}
}

func TestProgramPanicSurfacesFromRun(t *testing.T) {
	for _, domains := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Mem.Cores = 6
		cfg.Domains = domains
		s := New(cfg)
		before := runtime.NumGoroutine()
		progs := append(stuckPrograms(), func(e *Env) {
			for i := 0; i < 50; i++ {
				e.Compute(3) // fast operations: a domain worker resumes this program
			}
			panic("workload bug")
		})
		got := runRecover(s, progs)
		if got != "workload bug" {
			t.Fatalf("domains=%d: Run panicked with %v, want the program's panic value", domains, got)
		}
		if domains > 1 && s.FastOps() == 0 {
			t.Fatalf("domains=%d: no operation ran on a domain worker", domains)
		}
		if n := settleGoroutines(before); n > before {
			t.Errorf("domains=%d: %d goroutines after the panic, %d before: suspended programs leaked", domains, n, before)
		}
	}
}

func TestDeadlockStopsPrograms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mem.Cores = 4
	s := New(cfg)
	before := runtime.NumGoroutine()
	progs := stuckPrograms()[:3]
	got := runRecover(s, progs)
	msg, _ := got.(string)
	if !strings.HasPrefix(msg, "engine: deadlock: all cores parked:") ||
		!strings.Contains(msg, "core0(done=false park=1") || !strings.Contains(msg, "core2(done=false park=4") {
		t.Fatalf("Run panicked with %v, want the deadlock report", got)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("%d goroutines after the deadlock, %d before: parked programs leaked", n, before)
	}
}
