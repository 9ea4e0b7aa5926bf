package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%06d", i)
	}
	return keys
}

// memberOwners maps every key to its ring owner over the given live names.
func memberOwners(t *testing.T, names []string, keys []string) map[string]string {
	t.Helper()
	m, err := newMembers(names, 64)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		if out[k], err = m.lookup(k); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRingValidation: a membership rejects empty and duplicate member
// names, sorts its names, resolves nothing when empty, and defaults to 64
// virtual nodes per member.
func TestRingValidation(t *testing.T) {
	empty, err := newMembers(nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.lookup("w1"); !errors.Is(err, ErrNoNodes) {
		t.Errorf("empty membership lookup: err = %v, want ErrNoNodes", err)
	}
	if _, err := newMembers([]string{"a", ""}, 64); err == nil {
		t.Error("empty member name accepted")
	}
	if _, err := newMembers([]string{"a", "a"}, 64); err == nil {
		t.Error("duplicate member accepted")
	}
	m, err := newMembers([]string{"b", "a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.names; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("names = %v", got)
	}
	keys := ringKeys(2000)
	def, explicit := memberOwners(t, []string{"b", "a"}, keys), make(map[string]string, len(keys))
	for _, k := range keys {
		if explicit[k], err = m.lookup(k); err != nil {
			t.Fatal(err)
		}
		if explicit[k] != def[k] {
			t.Fatalf("vnodes=0 owner of %s is %s, 64 vnodes gives %s", k, explicit[k], def[k])
		}
	}
}

// TestRingOwnershipBalanced is the balance property: at every cluster
// size, the busiest member owns at most a bounded multiple of the
// quietest member's keys. With 64 vnodes the fmix64-mixed ring keeps the
// max/min ratio modest; a blowup here means the vnode hashing regressed
// into the banding problem the finalizer exists to fix.
func TestRingOwnershipBalanced(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{2, 3, 4, 8} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("node-%d", i)
		}
		counts := make(map[string]int, n)
		for _, owner := range memberOwners(t, names, keys) {
			counts[owner]++
		}
		min, max := len(keys), 0
		for _, name := range names {
			c := counts[name]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 {
			t.Fatalf("n=%d: a member owns zero keys: %v", n, counts)
		}
		ratio := float64(max) / float64(min)
		if ratio > 2.5 {
			t.Errorf("n=%d: ownership ratio max/min = %.2f (%v)", n, ratio, counts)
		}
		t.Logf("n=%d: max/min = %.2f", n, ratio)
	}
}

// TestRingLeaveMovesOnlyDepartedKeys: removing a member must reassign
// exactly the keys it owned — every key owned by a survivor keeps its
// owner. This is the property that makes failover requeue bounded: only
// the dead node's tasks move.
func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	keys := ringKeys(10000)
	before := memberOwners(t, []string{"n0", "n1", "n2", "n3"}, keys)
	after := memberOwners(t, []string{"n0", "n1", "n3"}, keys)
	moved := 0
	for _, k := range keys {
		if before[k] == "n2" {
			if after[k] == "n2" {
				t.Fatalf("key %s still owned by departed member", k)
			}
			moved++
			continue
		}
		if after[k] != before[k] {
			t.Fatalf("key %s moved %s -> %s though its owner survived", k, before[k], after[k])
		}
	}
	if moved == 0 {
		t.Fatal("departed member owned no keys")
	}
}

// TestRingJoinMovesMinimalFraction: adding a member must steal roughly
// 1/n of the keys (its fair share) and nothing may move between two
// surviving members.
func TestRingJoinMovesMinimalFraction(t *testing.T) {
	keys := ringKeys(20000)
	before := memberOwners(t, []string{"n0", "n1", "n2"}, keys)
	after := memberOwners(t, []string{"n0", "n1", "n2", "n3"}, keys)
	moved := 0
	for _, k := range keys {
		if after[k] == before[k] {
			continue
		}
		if after[k] != "n3" {
			t.Fatalf("key %s moved %s -> %s, not to the joiner", k, before[k], after[k])
		}
		moved++
	}
	frac := float64(moved) / float64(len(keys))
	// Fair share is 1/4; allow generous slack for vnode placement noise,
	// but reject both a no-op join and a mass reshuffle.
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("join moved %.1f%% of keys, want ~25%%", 100*frac)
	}
	t.Logf("join moved %.1f%% of keys", 100*frac)
}

// TestRingLookupDeterministic: ownership is a pure function of the member
// set — two independently built memberships agree on every key, regardless
// of the order the names arrive in.
func TestRingLookupDeterministic(t *testing.T) {
	keys := ringKeys(2000)
	a := memberOwners(t, []string{"x", "y", "z"}, keys)
	b := memberOwners(t, []string{"z", "x", "y"}, keys)
	for _, k := range keys {
		if a[k] != b[k] {
			t.Fatalf("order-dependent ownership for %s: %s vs %s", k, a[k], b[k])
		}
	}
}

// TestRingGoldenOwners pins the worker→owner mapping of w0000…w0999 for
// engine shard counts and gateway memberships, including a join and a
// leave driven through the gateway itself. Each digest is the first 8
// bytes of SHA-256 over the comma-joined owners in key order; a change
// here re-homes live workers on upgrade.
func TestRingGoldenOwners(t *testing.T) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%04d", i)
	}
	digest := func(owner func(string) string) string {
		owners := make([]string, len(keys))
		for i, k := range keys {
			owners[i] = owner(k)
		}
		sum := sha256.Sum256([]byte(strings.Join(owners, ",")))
		return hex.EncodeToString(sum[:8])
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: owner digest %s, want %s", what, got, want)
		}
	}

	for _, c := range []struct {
		shards int
		want   string
	}{{1, "7e0f8f11af1b6c00"}, {2, "7cfd48613a2c613a"}, {3, "4000c0f2e88e7807"}, {8, "f78a34ad2d0de70e"}} {
		eng, err := shard.New(shard.Config{Shards: c.shards, StealInterval: -1,
			Stream: stream.Config{Xmax: 2}, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%d shards", c.shards), digest(func(k string) string { return strconv.Itoa(eng.ShardOf(k)) }), c.want)
		eng.Close()
	}
	for _, c := range []struct {
		names []string
		want  string
	}{{[]string{"n0", "n1"}, "3c2e9fda8b338589"}, {[]string{"a", "b", "c"}, "d08083f26443c02d"}} {
		owners := memberOwners(t, c.names, keys)
		check(fmt.Sprint(c.names), digest(func(k string) string { return owners[k] }), c.want)
	}

	tc := newTestCluster(t, 3, 1, 8, 2)
	gw := tc.gw
	gatewayOwner := func(k string) string {
		p, err := gw.owner(k)
		if err != nil {
			t.Fatal(err)
		}
		return p.name
	}
	check("gateway n0 n1 n2", digest(gatewayOwner), "dd203cde14028480")
	eng, err := shard.New(shard.Config{Shards: 1, StealInterval: -1,
		Stream: stream.Config{Xmax: 2}, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, err := NewNode(NodeConfig{Name: "n3", Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()
	if err := gw.AddNode("n3", srv.URL); err != nil {
		t.Fatal(err)
	}
	check("gateway join n3", digest(gatewayOwner), "31037ea18bce1947")
	gw.dropNode("n1")
	check("gateway leave n1", digest(gatewayOwner), "ccab31038ad1570a")
}
