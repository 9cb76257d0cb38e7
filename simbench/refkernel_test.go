package main

import "testing"

// TestRefKernelOneCycle: the chase visits every slot once before it
// returns to its start, so every timing walks the same 8 MiB.
func TestRefKernelOneCycle(t *testing.T) {
	k := newRefKernel()
	p := uint32(0)
	for i := 1; i <= refCycle; i++ {
		p = k.next[p]
		if p == 0 && i < refCycle {
			t.Fatalf("chase returns to its start after %d of %d slots", i, refCycle)
		}
	}
	if p != 0 {
		t.Fatalf("chase does not close after %d slots", refCycle)
	}
	if k.time() <= 0 {
		t.Error("kernel timing is not positive")
	}
}
