//go:build go1.23

package engine

import "iter"

// This file runs each core's Program as an iter.Pull coroutine: Env.rpc
// yields the request to the scheduler and reads the response from the core
// when the scheduler resumes it. A coroutine runs only inside its next call,
// on the goroutine that made the call, so exactly one program runs at a time
// and handing execution to it is a coroutine switch. The domain workers
// (domains.go) resume the cores of their span the same way; successive next
// calls may come from different goroutines.

// start creates core c's program coroutine. An abort unwinds the program
// through abortSignal, recovered here; any other panic propagates to the
// caller of next or stop.
func (s *System) start(c *core, p Program) {
	c.next, c.stop = iter.Pull(func(yield func(request) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					panic(r)
				}
			}
		}()
		p(&Env{sys: s, c: c, yield: yield})
	})
}

// resume runs c's program until it issues its next request, which becomes
// c.pendingReq; a program that returned issues reqDone.
func (s *System) resume(c *core) {
	r, ok := c.next()
	if !ok {
		r = request{kind: reqDone}
	}
	c.pendingReq = r
}

// respond answers c's pending request and resumes its program.
func (s *System) respond(c *core, resp response) {
	c.resp = resp
	s.resume(c)
}

// stopPrograms unwinds every program of the run that is still suspended; it
// is a no-op for programs that finished.
func (s *System) stopPrograms() {
	for _, c := range s.live {
		if c.stop != nil {
			stop := c.stop
			c.next, c.stop = nil, nil
			stop()
		}
	}
}
