package shard

import (
	"fmt"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring mapping keys (worker IDs) to owners. The
// same ring places workers on an engine's shards and on a cluster's nodes:
// each owner is named by a point label ("shard-3", "node-n1") and owns
// VirtualNodes points on the ring, hashed from "<label>#<v>". So the
// mapping is (a) deterministic given the labels — the property the
// 1-shard determinism test and snapshot restore rely on — and (b) stable
// under membership changes: adding or removing one label moves only the
// keys on that label's arcs, ~1/(N+1) of them, instead of rehashing
// everything the way `hash % N` would.
//
// The ring is immutable after construction.
type Ring struct {
	points []ringPoint // sorted by hash, ties by owner index
}

type ringPoint struct {
	hash  uint64
	owner int
}

// NewRing builds a ring over the given point labels with vnodes points per
// label (default 64 when vnodes <= 0). Labels must be unique and
// non-empty; Lookup returns indexes into labels.
func NewRing(labels []string, vnodes int) (*Ring, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("shard: ring needs >= 1 owner")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := make(map[string]bool, len(labels))
	r := &Ring{points: make([]ringPoint, 0, len(labels)*vnodes)}
	for i, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("shard: empty ring label")
		}
		if seen[l] {
			return nil, fmt.Errorf("shard: duplicate ring label %q", l)
		}
		seen[l] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  fnv1a(l + "#" + strconv.Itoa(v)),
				owner: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
	return r, nil
}

// shardLabels names an engine's shards on its ring.
func shardLabels(shards int) []string {
	labels := make([]string, shards)
	for i := range labels {
		labels[i] = "shard-" + strconv.Itoa(i)
	}
	return labels
}

// Lookup maps a key (worker ID) to the index of its owner: the first ring
// point clockwise of the key's hash.
func (r *Ring) Lookup(key string) int {
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].owner
}

// fnv1a is the 64-bit FNV-1a hash (stdlib hash/fnv without the
// interface-allocation overhead on the Lookup path) with an avalanche
// finalizer. Raw FNV-1a is unusable for a hash ring: short keys that
// differ only in their last characters ("w0041" vs "w0042",
// "shard-0#7" vs "shard-0#8") hash into tight bands, so whole key
// populations land in one shard's arc. The multiply–xor–shift finisher
// (MurmurHash3 fmix64) spreads those bands over the full uint64 space.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
