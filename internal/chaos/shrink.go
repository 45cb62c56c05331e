package chaos

import "github.com/panic-nic/panic/internal/fault"

// Shrink minimizes a failing scenario to a smaller one that still fails
// the same invariant check, by re-running candidates: drop fault events
// one at a time, shorten the horizon, reduce tenants and requests, and
// reset the replica count. budget caps the number of candidate runs (each
// is a full simulation); the original failure's check name anchors the
// search so shrinking never wanders onto a different bug.
// It returns the minimal scenario and the number of runs spent.
func Shrink(s Scenario, orig *Failure, budget int) (Scenario, int) {
	runs := 0
	fails := func(c Scenario) bool {
		if runs >= budget {
			return false
		}
		runs++
		f := Run(c)
		return f != nil && f.Check == orig.Check
	}

	// Pass 1: drop fault events, greedily, to a fixpoint. Restart after
	// every successful removal so later events are retried against the
	// smaller plan.
	for {
		removed := false
		for i := 0; i < len(s.Plan.Events); i++ {
			c := s
			c.Plan = &fault.Plan{}
			c.Plan.Events = append(append([]fault.Event{}, s.Plan.Events[:i]...), s.Plan.Events[i+1:]...)
			if fails(c) {
				s = c
				removed = true
				break
			}
		}
		if !removed {
			break
		}
	}

	// Pass 2: shorten the horizon by halving while the failure survives.
	for s.Cycles/2 >= 2000 {
		c := s
		c.Cycles = s.Cycles / 2
		if !fails(c) {
			break
		}
		s = c
	}

	// Pass 3: reduce tenants — try collapsing to one tenant first, then
	// decrementing.
	for s.Tenants > 1 {
		c := s
		c.Tenants = 1
		if fails(c) {
			s = c
			break
		}
		c.Tenants = s.Tenants - 1
		if !fails(c) {
			break
		}
		s = c
	}

	// Pass 4: reduce the workload by halving the request count.
	for s.Requests/2 >= 10 {
		c := s
		c.Requests = s.Requests / 2
		if !fails(c) {
			break
		}
		s = c
	}

	// Pass 5: reset the replica count to the boring default so the
	// reproducer is as vanilla as the bug allows.
	if c := s; c.Replicas != 1 {
		c.Replicas = 1
		if fails(c) {
			s = c
		}
	}
	return s, runs
}
