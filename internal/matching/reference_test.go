package matching

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

type refEdge struct {
	w    float64
	i, j int32
}

// edgeLess is the strict total order the greedy matching follows, as a
// comparison: lighter first, ties broken by higher endpoint indices, so
// that the *reverse* order is "heavier first, then lower (i, j)".
func edgeLess(a, b refEdge) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	if a.i != b.i {
		return a.i > b.i
	}
	return a.j > b.j
}

// greedyReference is the textbook greedy matching by comparison sort: the
// oracle GreedySortP's bucketed edge order must reproduce, down to the bits
// of the summed weight.
func greedyReference(n int, w WeightFunc) Matching {
	edges := make([]refEdge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, refEdge{w: w(i, j), i: int32(i), j: int32(j)})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edgeLess(edges[b], edges[a]) })
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	var total float64
	matched := 0
	for _, e := range edges {
		if matched >= n-1 {
			break
		}
		if mate[e.i] == -1 && mate[e.j] == -1 {
			mate[e.i], mate[e.j] = int(e.j), int(e.i)
			total += e.w
			matched += 2
		}
	}
	return Matching{Mate: mate, Weight: total}
}

// fuzzWeights draws a symmetric weight table: levels in 1–8 gives that many
// distinct values k/levels, levels 0 gives all-distinct weights, and each
// edge turns into +0 or −0 with probability zeros/256.
func fuzzWeights(r *rand.Rand, n, levels, zeros int) WeightFunc {
	w := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.Float64()
			if levels > 0 {
				v = float64(r.Intn(levels)) / float64(levels)
			}
			if r.Intn(256) < zeros {
				v = math.Copysign(0, float64(r.Intn(2))-0.5)
			}
			w[i*n+j], w[j*n+i] = v, v
		}
	}
	return func(i, j int) float64 { return w[i*n+j] }
}

// FuzzGreedySortParity: the bucketed greedy returns the reference's Mate
// and the same Weight bits, for few levels, all-distinct weights and ±0
// mixes, at every parallelism level. Plain `go test` runs the seed corpus:
// every level count, each with no, some and many zeros.
func FuzzGreedySortParity(f *testing.F) {
	for s := 0; s < 27; s++ {
		f.Add(int64(s), uint8(s*19), uint8(s%9), uint8(s/9*60))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, levels, zeros uint8) {
		size := int(n % 65)
		w := fuzzWeights(rand.New(rand.NewSource(seed)), size, int(levels%9), int(zeros))
		want := greedyReference(size, w)
		for _, p := range []int{1, 2, size + 3} {
			got := GreedySortP(size, w, p)
			if !reflect.DeepEqual(got.Mate, want.Mate) {
				t.Fatalf("n=%d p=%d: Mate %v, reference %v", size, p, got.Mate, want.Mate)
			}
			if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
				t.Fatalf("n=%d p=%d: Weight %v (%#x), reference %v (%#x)", size, p,
					got.Weight, math.Float64bits(got.Weight), want.Weight, math.Float64bits(want.Weight))
			}
		}
	})
}

// TestWeightKeyOrder: weightKey's unsigned order is the numeric order and
// keyWeight inverts it, with −0 folded into +0.
func TestWeightKeyOrder(t *testing.T) {
	vs := []float64{math.Inf(-1), -3.5, -1e-300, 0, 1e-300, 1.0 / 3, 1, math.Inf(1)}
	for a := range vs {
		if got := keyWeight(weightKey(vs[a])); math.Float64bits(got) != math.Float64bits(vs[a]) {
			t.Errorf("keyWeight(weightKey(%v)) = %v", vs[a], got)
		}
		for b := a + 1; b < len(vs); b++ {
			if weightKey(vs[a]) >= weightKey(vs[b]) {
				t.Errorf("weightKey(%v) >= weightKey(%v)", vs[a], vs[b])
			}
		}
	}
	if weightKey(math.Copysign(0, -1)) != weightKey(0) {
		t.Error("−0 and +0 have different keys")
	}
	if math.Signbit(keyWeight(weightKey(math.Copysign(0, -1)))) {
		t.Error("−0 did not come back as +0")
	}
}
