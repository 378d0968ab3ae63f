package main

import "time"

// The host this runs on is a shared two-core sandbox that a neighbour slows by
// 10-40 % for seconds to minutes at a time. A fill-in pass that ran for its one
// second at the end of the run would report whatever that second happened to
// be. So the named workload and the three fill-in passes run as lanes of one
// client: each is an ordinary sequential function on its own goroutine,
// exactly one of them holds the baton at any time, and a lane hands it back at
// its round boundaries. Every lane's rounds are then spread over the whole
// run, and every metric has its share of the stretches the host left alone
// (see calmLow in metrics.go).

// lane is one workload instance's turn-taking state.
type lane struct {
	weight  float64       // share of the client's time
	run     func() error  // the workload; runs on the lane's goroutine
	used    time.Duration // baton time of finished turns
	since   time.Time     // start of the current turn
	waiting bool          // in alone: only scheduled when no other lane is left
	resume  chan struct{}
	yielded chan bool // true when run has returned
	err     error
}

// clock is how long the lane has held the baton so far. Budgets are checked
// against it, so a lane's measuring time does not include the others' turns.
func (l *lane) clock() time.Duration { return l.used + time.Since(l.since) }

// yield hands the baton back and blocks until the lane's next turn.
func (l *lane) yield() {
	l.yielded <- false
	<-l.resume
}

// interleave runs the lanes to completion, always giving the next turn to the
// lane that has had the least of its share (the first lane wins ties). It
// returns the first lane error, after every lane has finished.
func interleave(lanes []*lane) error {
	for _, l := range lanes {
		l.resume, l.yielded = make(chan struct{}), make(chan bool)
		go func(l *lane) {
			<-l.resume
			l.err = l.run()
			l.yielded <- true
		}(l)
	}
	var first error
	active := append([]*lane(nil), lanes...)
	for len(active) > 0 {
		// A waiting lane is passed over until it is the only one left; only
		// the named workload's lane ever waits, so another is always there.
		at := -1
		for i, l := range active {
			if l.waiting && len(active) > 1 {
				continue
			}
			if at < 0 || l.used.Seconds()/l.weight < active[at].used.Seconds()/active[at].weight {
				at = i
			}
		}
		l := active[at]
		l.since = time.Now()
		l.resume <- struct{}{}
		done := <-l.yielded
		l.used += time.Since(l.since)
		if done {
			if l.err != nil && first == nil {
				first = l.err
			}
			active = append(active[:at], active[at+1:]...)
		}
	}
	return first
}

// clock is the env's measuring clock: the lane's, or wall time since the env
// was made when the workload runs on its own (a traced run).
func (e *env) clock() time.Duration {
	if e.lane != nil {
		return e.lane.clock()
	}
	return time.Since(e.born)
}

// spent reports whether budget seconds of measuring time have passed since
// the clock read start.
func (e *env) spent(start time.Duration, budget float64) bool {
	return (e.clock() - start).Seconds() >= budget
}

// yield marks a round boundary.
func (e *env) yield() {
	if e.lane != nil {
		e.lane.yield()
	}
}

// alone returns once every other lane has finished, so that what is measured
// next — the heap — is this workload's only.
func (e *env) alone() {
	if e.lane == nil {
		return
	}
	e.lane.waiting = true
	e.lane.yield()
	e.lane.waiting = false
}
