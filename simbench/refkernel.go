package main

import (
	"math"
	"time"
)

// refKernel is a fixed piece of work that depends on no code of the
// repository: a pointer chase over a random cycle larger than the
// caches, map lookups and integer mixing, the kinds of work the
// simulator spends its time on. Timed between rounds, it tells how fast
// the shared host is at that moment (see hostScale). It runs in the
// parent process, so it adds nothing to a round's heap, RSS or
// collections.
type refKernel struct {
	next []uint32
	m    map[uint32]uint32
	pos  uint32
	sink uint64
}

const (
	refCycle = 1 << 21 // 8 MiB of chase
	refMap   = 1 << 16
	refSteps = 1 << 17 // one timed repetition, about 20 ms
	refReps  = 10
)

func newRefKernel() *refKernel {
	k := &refKernel{next: make([]uint32, refCycle), m: make(map[uint32]uint32, refMap)}
	// Sattolo's algorithm: one cycle through every slot, from a fixed
	// xorshift stream so every run chases the same cycle.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(k.next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	for i := uint32(0); i < refMap; i++ {
		k.m[i*2654435761] = i
	}
	return k
}

func (k *refKernel) run(steps int) {
	p, s := k.pos, k.sink
	for i := 0; i < steps; i++ {
		p = k.next[p]
		v := k.m[(p%refMap)*2654435761]
		s = (s ^ uint64(v) ^ uint64(p)) * 0x9E3779B97F4A7C15
	}
	k.pos, k.sink = p, s
}

// time returns the fastest of refReps timed repetitions in seconds.
func (k *refKernel) time() float64 {
	best := math.Inf(1)
	for i := 0; i < refReps; i++ {
		t := time.Now()
		k.run(refSteps)
		best = math.Min(best, time.Since(t).Seconds())
	}
	return best
}
