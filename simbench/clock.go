package main

import (
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// countingClock is the traced run's view of the vclock layer: a
// delegating vclock.Clock that counts the scheduling calls every
// emulated component makes through the clock it was built with.
// Embedding the interface forwards everything else (Now, Since, and the
// unexported waiter hook behind Mailbox, Gate and Group), so the
// simulation runs the same events in the same order; only the counters
// are added.
type countingClock struct {
	vclock.Clock
	posts, posts2, afterFuncs, gos, sleeps atomic.Int64
}

func (c *countingClock) Post(d time.Duration, fn func()) vclock.Pending {
	c.posts.Add(1)
	return c.Clock.Post(d, fn)
}

func (c *countingClock) Post2(d time.Duration, fn func(a, b any), a, b any) vclock.Pending {
	c.posts2.Add(1)
	return c.Clock.Post2(d, fn, a, b)
}

func (c *countingClock) AfterFunc(d time.Duration, fn func()) *vclock.Timer {
	c.afterFuncs.Add(1)
	return c.Clock.AfterFunc(d, fn)
}

func (c *countingClock) Go(fn func()) {
	c.gos.Add(1)
	c.Clock.Go(fn)
}

func (c *countingClock) Sleep(d time.Duration) {
	c.sleeps.Add(1)
	c.Clock.Sleep(d)
}

// clockCounts is a snapshot of a countingClock.
type clockCounts struct {
	events, goroutines, sleeps int64
}

// counts reports scheduled events (every Post, Post2, AfterFunc and
// Sleep puts one event on the wheel), tracked goroutines started with
// Go, and sleeps.
func (c *countingClock) counts() clockCounts {
	s := c.sleeps.Load()
	return clockCounts{
		events:     c.posts.Load() + c.posts2.Load() + c.afterFuncs.Load() + s,
		goroutines: c.gos.Load(),
		sleeps:     s,
	}
}
