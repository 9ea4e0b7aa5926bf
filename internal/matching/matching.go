// Package matching computes maximum-weight matchings on complete weighted
// graphs. Both HTA algorithms first compute a matching M_B on the diversity
// graph B — vertices are tasks, edge weights are pairwise diversities
// d(t_k, t_l) — to identify high-diversity task pairs (Line 2 of Algorithms
// 1 and 2). Arkin et al.'s analysis, which the paper's proofs adapt, only
// needs M_B to satisfy the local-domination inequalities of a greedy
// matching (Equations 9–10 in the appendix), so a ½-approximation suffices.
//
// Two ½-approximate algorithms are provided:
//
//   - GreedySort: the textbook greedy — order all edges by weight, take an
//     edge when both endpoints are free. The paper states O(n² log n) for
//     this step; with D distinct weights (six for five-keyword Jaccard task
//     groups) the edges are bucketed by weight instead of compared, in
//     O(n² + D log D) time, but the edge list costs Θ(n²) memory.
//   - Suitor: the suitor algorithm of Manne & Halappanavar, which computes
//     exactly the same matching as greedy under a fixed total order on
//     edges but needs only O(n) memory, at O(n²) expected time on complete
//     graphs. Used above the edge-list memory threshold.
//
// ExactSmall computes a true maximum-weight matching by bitmask DP for
// cross-checking the approximation guarantee in tests.
package matching

import (
	"fmt"
	"math"
	"slices"

	"github.com/htacs/ata/internal/par"
)

// WeightFunc returns the weight of edge {i, j}, i ≠ j. It must be symmetric
// and non-negative; callers in this repository pass metric distances.
type WeightFunc func(i, j int) float64

// Matching is a set of vertex-disjoint edges.
type Matching struct {
	// Mate[v] is the vertex matched to v, or -1 if v is unmatched.
	Mate []int
	// Weight is the total weight of matched edges.
	Weight float64
}

// Edges returns the matched pairs (i, j) with i < j.
func (m Matching) Edges() [][2]int {
	var out [][2]int
	for i, j := range m.Mate {
		if j > i {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// Size returns the number of matched edges.
func (m Matching) Size() int {
	n := 0
	for i, j := range m.Mate {
		if j > i {
			n++
		}
	}
	return n
}

// Validate checks that Mate is an involution without fixed points and that
// Weight equals the sum of matched edge weights.
func (m Matching) Validate(w WeightFunc) error {
	var total float64
	for i, j := range m.Mate {
		if j == -1 {
			continue
		}
		if j < 0 || j >= len(m.Mate) || j == i {
			return fmt.Errorf("matching: Mate[%d] = %d invalid", i, j)
		}
		if m.Mate[j] != i {
			return fmt.Errorf("matching: Mate[%d]=%d but Mate[%d]=%d", i, j, j, m.Mate[j])
		}
		if j > i {
			total += w(i, j)
		}
	}
	if math.Abs(total-m.Weight) > 1e-6 {
		return fmt.Errorf("matching: recorded weight %g != recomputed %g", m.Weight, total)
	}
	return nil
}

// DefaultEdgeListLimit is the number of edges above which Auto switches
// from GreedySort to the memory-light Suitor algorithm (~36 MB of edges at
// 12 bytes each, plus GreedySort's table of distinct weights).
const DefaultEdgeListLimit = 3_000_000

// Auto picks GreedySort when the complete graph's edge list fits in
// DefaultEdgeListLimit entries, Suitor otherwise. Both produce the same
// matching (greedy under the (weight, lower-index) total order).
func Auto(n int, w WeightFunc) Matching {
	return AutoP(n, w, 1)
}

// AutoP is Auto with the edge-list construction sharded across p goroutines
// (p >= 1 literal, p <= 0 → runtime.NumCPU()). The matching returned is
// identical to Auto's for any p: parallelism only changes when edge weights
// are evaluated, never the edge order the greedy pass consumes. w must
// therefore be safe for concurrent calls (all weight functions in this
// repository are: they read immutable instances).
func AutoP(n int, w WeightFunc, p int) Matching {
	if n*(n-1)/2 <= DefaultEdgeListLimit {
		return GreedySortP(n, w, p)
	}
	return Suitor(n, w)
}

// GreedySort runs the classic greedy matching: consider edges in decreasing
// weight (ties broken by lower endpoint indices), taking an edge when both
// endpoints are still free. It is a ½-approximation of the maximum-weight
// matching and, on a complete graph, leaves at most one vertex unmatched.
//
// The edges are put in that order without a comparison sort: the D distinct
// weights are sorted, and the edges, read in row-major (i, j) order, are
// counted into one bucket per weight. That takes O(n² + D log D) time and
// 12 bytes per edge plus O(n + D): about 30 bytes per distinct weight,
// little when the weights take few values (Jaccard distances of keyword
// sets) and more than the edges when all weights differ.
func GreedySort(n int, w WeightFunc) Matching {
	return GreedySortP(n, w, 1)
}

// rowBase is the edge-list offset of row i in the row-major upper-triangle
// layout GreedySort uses: edge (i, j), j > i, lives at rowBase(n, i)+j-i-1.
func rowBase(n, i int) int { return i * (2*n - i - 1) / 2 }

// maxPackedN is the largest vertex count whose edges pack into a uint32 as
// i<<16 | j.
const maxPackedN = 1 << 16

// GreedySortP is GreedySort with the edge weights evaluated by p goroutines
// (p >= 1 literal, p <= 0 → runtime.NumCPU()). Each weight is written to its
// position-determined slot and everything after the fill is serial, so the
// matching is identical to the serial one. w must be safe for concurrent
// calls. Above maxPackedN vertices it returns Suitor's matching, which is
// the same one.
func GreedySortP(n int, w WeightFunc, p int) Matching {
	if n > maxPackedN {
		return Suitor(n, w)
	}
	keys := make([]uint64, n*(n-1)/2)
	// Row i contributes n-1-i edges; weight the chunks accordingly.
	par.DoWeighted(n, p, func(i int) int { return n - 1 - i }, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := rowBase(n, i)
			for j := i + 1; j < n; j++ {
				keys[base+j-i-1] = weightKey(w(i, j))
			}
		}
	})
	// Replace each key by its level: the number of its distinct weight.
	lv := newLevelTable()
	for e, k := range keys {
		keys[e] = uint64(lv.id(k))
	}
	// Heaviest level first, each level gets a run of order; next[id] is
	// the next free slot in level id's run. A stable counting sort: within
	// a level, edges keep their row-major (i, j) order.
	heavy := slices.Clone(lv.keys)
	slices.Sort(heavy)
	slices.Reverse(heavy)
	next := lv.count
	at := uint32(0)
	for _, k := range heavy {
		id := *lv.slot(k) - 1
		at, next[id] = at+next[id], at
	}
	order := make([]uint32, len(keys))
	e := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			id := keys[e]
			order[next[id]] = uint32(i<<16 | j)
			next[id]++
			e++
		}
	}

	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	var total float64
	matched, start := 0, uint32(0)
	for _, k := range heavy {
		end := next[*lv.slot(k)-1] // the run's end, after the fill above
		wk := keyWeight(k)
		for _, ij := range order[start:end] {
			if matched >= n-1 {
				return Matching{Mate: mate, Weight: total}
			}
			i, j := int(ij>>16), int(ij&0xffff)
			if mate[i] == -1 && mate[j] == -1 {
				mate[i], mate[j] = j, i
				total += wk
				matched += 2
			}
		}
		start = end
	}
	return Matching{Mate: mate, Weight: total}
}

// weightKey maps a weight to a uint64 whose unsigned order is the weight's
// numeric order. −0 maps like +0: they are one weight level.
func weightKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyWeight inverts weightKey.
func keyWeight(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// levelTable numbers distinct keys in first-seen order and counts how often
// each was seen, in an open-addressing hash table: O(D) memory for D keys.
type levelTable struct {
	keys  []uint64 // keys[id] is the key numbered id
	count []uint32 // count[id] is how many times id was returned
	slots []uint32 // id+1, or 0 for an empty slot; the length is a power of two
	shift uint     // 64 - log2(len(slots))
}

// newLevelTable starts with 16 slots, room for 8 keys before it grows.
func newLevelTable() *levelTable {
	return &levelTable{
		keys:  make([]uint64, 0, 8),
		count: make([]uint32, 0, 8),
		slots: make([]uint32, 16),
		shift: 60,
	}
}

// id returns k's number, numbering it if it is new.
func (t *levelTable) id(k uint64) uint32 {
	s := t.slot(k)
	if *s == 0 {
		if 2*(len(t.keys)+1) > len(t.slots) {
			t.grow()
			s = t.slot(k)
		}
		t.keys = append(t.keys, k)
		t.count = append(t.count, 0)
		*s = uint32(len(t.keys))
	}
	t.count[*s-1]++
	return *s - 1
}

// slot returns the slot holding k, or the empty slot where k belongs.
func (t *levelTable) slot(k uint64) *uint32 {
	mask := uint64(len(t.slots) - 1)
	for h := k * 0x9e3779b97f4a7c15 >> t.shift; ; h = (h + 1) & mask {
		if s := &t.slots[h]; *s == 0 || t.keys[*s-1] == k {
			return s
		}
	}
}

// grow doubles the table and re-slots every key.
func (t *levelTable) grow() {
	t.slots = make([]uint32, 2*len(t.slots))
	t.shift--
	for id, k := range t.keys {
		*t.slot(k) = uint32(id + 1)
	}
}

// prefer reports whether, for vertex u, the offer from vertex a with weight
// wa beats the offer from vertex b with weight wb under the same total
// order used by GreedySort.
func prefer(u int, wa float64, a int, wb float64, b int) bool {
	if wa != wb {
		return wa > wb
	}
	// Tie: the edge with the lexicographically smaller (min, max) endpoint
	// pair wins, as in GreedySort's edge order.
	ai, aj := u, a
	if ai > aj {
		ai, aj = aj, ai
	}
	bi, bj := u, b
	if bi > bj {
		bi, bj = bj, bi
	}
	if ai != bi {
		return ai < bi
	}
	return aj < bj
}

// Suitor computes the greedy matching with O(n) memory using the suitor
// algorithm: every vertex proposes to the best neighbour that would accept
// it, displacing weaker suitors, until proposals stabilize. With a strict
// total order on edges the fixed point is exactly the greedy matching.
func Suitor(n int, w WeightFunc) Matching {
	suitor := make([]int, n) // current best proposer for each vertex, -1 if none
	for i := range suitor {
		suitor[i] = -1
	}
	offer := make([]float64, n) // weight of the suitor's edge
	for u := 0; u < n; u++ {
		current := u
		for current != -1 {
			bestV, bestW := -1, 0.0
			for v := 0; v < n; v++ {
				if v == current {
					continue
				}
				wv := w(current, v)
				// The offer must beat v's current suitor's offer.
				if suitor[v] != -1 && !prefer(v, wv, current, offer[v], suitor[v]) {
					continue
				}
				if bestV == -1 || prefer(current, wv, v, bestW, bestV) {
					bestV, bestW = v, wv
				}
			}
			if bestV == -1 {
				break
			}
			displaced := suitor[bestV]
			suitor[bestV] = current
			offer[bestV] = bestW
			current = displaced
		}
	}
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	var total float64
	for v := 0; v < n; v++ {
		u := suitor[v]
		if u != -1 && suitor[u] == v && mate[v] == -1 && mate[u] == -1 {
			mate[v], mate[u] = u, v
			total += w(u, v)
		}
	}
	return Matching{Mate: mate, Weight: total}
}

// ExactSmall computes a maximum-weight matching by dynamic programming over
// vertex subsets in O(n·2ⁿ) time. It panics for n > 18 and exists to
// cross-check the ½-approximation guarantee in tests.
func ExactSmall(n int, w WeightFunc) Matching {
	if n > 18 {
		panic(fmt.Sprintf("matching: ExactSmall limited to n <= 18, got %d", n))
	}
	size := 1 << uint(n)
	dp := make([]float64, size)
	choice := make([]int32, size) // packed (i<<8)|j of the matched pair, or -1 for "skip lowest"
	for s := range choice {
		choice[s] = -1
	}
	for s := 1; s < size; s++ {
		// Lowest set bit is vertex i.
		i := 0
		for s&(1<<uint(i)) == 0 {
			i++
		}
		rest := s &^ (1 << uint(i))
		// Option 1: leave i unmatched.
		dp[s] = dp[rest]
		choice[s] = -1
		// Option 2: match i with some j in rest.
		for j := i + 1; j < n; j++ {
			if rest&(1<<uint(j)) == 0 {
				continue
			}
			cand := w(i, j) + dp[rest&^(1<<uint(j))]
			if cand > dp[s] {
				dp[s] = cand
				choice[s] = int32(i<<8 | j)
			}
		}
	}
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	s := size - 1
	for s != 0 {
		c := choice[s]
		i := 0
		for s&(1<<uint(i)) == 0 {
			i++
		}
		if c == -1 {
			s &^= 1 << uint(i)
			continue
		}
		pi, pj := int(c>>8), int(c&0xff)
		mate[pi], mate[pj] = pj, pi
		s &^= (1 << uint(pi)) | (1 << uint(pj))
	}
	return Matching{Mate: mate, Weight: dp[size-1]}
}
