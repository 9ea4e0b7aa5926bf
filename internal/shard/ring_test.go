package shard

import (
	"fmt"
	"testing"
)

func TestRingValidation(t *testing.T) {
	for _, labels := range [][]string{nil, {"a", ""}, {"a", "a"}} {
		if _, err := NewRing(labels, 8); err == nil {
			t.Errorf("NewRing(%q) accepted", labels)
		}
	}
	r, err := NewRing(shardLabels(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.points) != 3*64 {
		t.Fatalf("default vnodes: %d points for 3 owners, want %d", len(r.points), 3*64)
	}
}

func TestRingLookupDeterministicAndTotal(t *testing.T) {
	r, err := NewRing(shardLabels(4), 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("w%04d", i)
		s := r.Lookup(key)
		if s < 0 || s >= 4 {
			t.Fatalf("Lookup(%q) = %d outside [0,4)", key, s)
		}
		if again := r.Lookup(key); again != s {
			t.Fatalf("Lookup(%q) unstable: %d then %d", key, s, again)
		}
	}
}

// TestRingBalance checks the virtual nodes spread keys roughly evenly: no
// owner gets more than 2.5x the fair share, and the busiest owner at most
// 2.5x the quietest. A blowup here means the vnode hashing regressed into
// the banding problem the fmix64 finalizer exists to fix.
func TestRingBalance(t *testing.T) {
	cases := []struct {
		labels []string
		keys   int
		key    string
	}{
		{shardLabels(2), 10000, "worker-%d"},
		{shardLabels(8), 10000, "worker-%d"},
	}
	for _, c := range cases {
		r, err := NewRing(c.labels, 64)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(c.labels))
		for i := 0; i < c.keys; i++ {
			counts[r.Lookup(fmt.Sprintf(c.key, i))]++
		}
		fair := c.keys / len(c.labels)
		min, max := c.keys, 0
		for s, n := range counts {
			if n == 0 {
				t.Fatalf("%s: owner %d received no keys", c.labels[0], s)
			}
			if n > fair*5/2 {
				t.Fatalf("%s: owner %d has %d keys, fair share %d — ring badly unbalanced", c.labels[0], s, n, fair)
			}
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if ratio := float64(max) / float64(min); ratio > 2.5 {
			t.Errorf("%d × %s: ownership ratio max/min = %.2f (%v)", len(c.labels), c.labels[0], ratio, counts)
		}
	}
}

// TestRingResizeMovesFewKeys is the consistent-hashing property the ring
// exists for: growing N→N+1 shards must move roughly 1/(N+1) of the keys,
// not reshuffle everything the way hash%N does.
func TestRingResizeMovesFewKeys(t *testing.T) {
	const keys = 10000
	r4, err := NewRing(shardLabels(4), 64)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := NewRing(shardLabels(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("worker-%d", i)
		if r4.Lookup(key) != r5.Lookup(key) {
			moved++
		}
	}
	// Ideal is 1/5 = 20%; allow slack for vnode granularity but fail hard
	// well before the 80% a modulo rehash would move.
	if moved > keys*35/100 {
		t.Fatalf("resize 4→5 moved %d/%d keys (>35%%) — not consistent hashing", moved, keys)
	}
	if moved == 0 {
		t.Fatal("resize 4→5 moved no keys — new shard owns nothing")
	}
}
