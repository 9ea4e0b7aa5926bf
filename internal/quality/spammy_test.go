package quality_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/quality"
)

// spammyCrowd fixes a mixed honest/spammy crowd: spammers answer
// uniformly at random, the rest answer correctly with probability
// honestAcc. Gold tasks are injected at the tracker's auto-gold rate, and
// their grades drive the online accuracy estimates and quarantines
// exactly as the platform does.
type spammyCrowd struct {
	tasks     int     // logical tasks offered (gold included)
	workers   int     // crowd size
	options   int     // answer alphabet L
	spamFrac  float64 // fraction of workers answering uniformly at random
	honestAcc float64 // P(truth) for the rest
	goldRate  float64 // tracker auto-gold fraction
}

var defaultSpammyCrowd = spammyCrowd{
	tasks: 360, workers: 60, options: 4,
	spamFrac: 0.4, honestAcc: 0.85, goldRate: 0.2,
}

// crowdOutcome is what one simulated crowd produced: correct answers per
// aggregator over the same non-gold vote sets, and the quarantines.
type crowdOutcome struct {
	evalTasks, goldTasks int
	majority, weighted   int // tasks each aggregator got right
	em                   int
	quarantined          int // workers the tracker quarantined
	quarantinedSpammers  int // of those, spammers
}

// simulateCrowd has the crowd answer every task k times from distinct,
// non-quarantined workers — what the platform's replica re-assignment
// converges to — and scores majority, accuracy-weighted and EM
// aggregation against ground truth on the identical vote sets.
func simulateCrowd(t *testing.T, shape spammyCrowd, k int, seed int64) crowdOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed + int64(100*k)))
	tr, err := quality.New(quality.Config{
		K: k, Options: shape.options,
		GoldRate: shape.goldRate, GoldSalt: uint64(seed) + 1,
		QuarantineFloor: 0.35, MinGold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	spammers := int(float64(shape.workers) * shape.spamFrac)
	var out crowdOutcome

	// Ground truth: gold tasks carry the tracker's synthesized answer (so
	// grading is consistent with scoring); the rest draw uniformly.
	truth := make(map[string]int, shape.tasks)
	ids := make([]string, shape.tasks)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%04d", i)
		tr.ObserveTask(ids[i])
		if ans, ok := tr.GoldAnswer(ids[i]); ok {
			truth[ids[i]] = ans
			out.goldTasks++
		} else {
			truth[ids[i]] = rng.Intn(shape.options)
		}
	}

	collected := make([]quality.TaskVotes, 0, shape.tasks)
	for _, id := range ids {
		var votes []quality.Vote
		accepted := 0
		for _, w := range rng.Perm(shape.workers) {
			if accepted == k {
				break
			}
			opt := truth[id]
			if w < spammers || rng.Float64() >= shape.honestAcc {
				opt = rng.Intn(shape.options)
			}
			wid := fmt.Sprintf("w%03d", w)
			res, err := tr.Submit(wid, id, opt)
			if err != nil {
				continue // quarantined; a replacement worker takes the slot
			}
			accepted++
			if !res.Gold {
				votes = append(votes, quality.Vote{Worker: wid, Option: opt})
			}
		}
		if len(votes) > 0 {
			collected = append(collected, quality.TaskVotes{TaskID: id, Votes: votes})
		}
	}
	if st := tr.Stats(); !st.Conserved() {
		t.Fatalf("k=%d seed %d: tracker conservation broken: %+v", k, seed, st)
	}

	// Weighted uses the gold-driven online estimates; EM learns from the
	// votes alone.
	acc := map[string]float64{}
	for _, rep := range tr.Reputations() {
		acc[rep.Worker] = rep.Accuracy
		if rep.Quarantined {
			out.quarantined++
			var w int
			if _, err := fmt.Sscanf(rep.Worker, "w%03d", &w); err == nil && w < spammers {
				out.quarantinedSpammers++
			}
		}
	}
	em, err := quality.Aggregate(collected, shape.options, quality.EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tv := range collected {
		want := truth[tv.TaskID]
		if m, _ := quality.Majority(tv.Votes, shape.options); m == want {
			out.majority++
		}
		if w, _ := quality.Weighted(tv.Votes, shape.options, acc, 0.5); w == want {
			out.weighted++
		}
		if quality.ArgMax(em.Posteriors[tv.TaskID]) == want {
			out.em++
		}
	}
	out.evalTasks = len(collected)
	return out
}

// TestTrustAwareAggregationBeatsMajority is the quality layer's
// acceptance contrast: under a 40% spammy crowd at k=3, both the
// accuracy-weighted vote and the EM estimator must answer more tasks
// correctly than plain majority on the same votes, and the gold loop must
// have quarantined at least one spammer.
func TestTrustAwareAggregationBeatsMajority(t *testing.T) {
	out := simulateCrowd(t, defaultSpammyCrowd, 3, 1)
	n := float64(out.evalTasks)
	t.Logf("k=3: %d scored tasks, %d gold; accuracy majority %.3f, weighted %.3f, EM %.3f; quarantined %d (%d spammers)",
		out.evalTasks, out.goldTasks, float64(out.majority)/n, float64(out.weighted)/n, float64(out.em)/n,
		out.quarantined, out.quarantinedSpammers)
	if out.evalTasks == 0 || out.goldTasks == 0 {
		t.Fatalf("degenerate crowd: %+v", out)
	}
	if out.weighted <= out.majority {
		t.Errorf("weighted aggregation got %d tasks right, majority %d: weighted must beat majority",
			out.weighted, out.majority)
	}
	if out.em <= out.majority {
		t.Errorf("EM aggregation got %d tasks right, majority %d: EM must beat majority",
			out.em, out.majority)
	}
	if out.quarantinedSpammers == 0 {
		t.Error("no spammer quarantined at k=3 — the gold loop never fired")
	}
}

// TestSpammyCrowdDeterministic: the same seed reproduces the same
// outcome at every redundancy level, or the aggregator contrast measures
// noise.
func TestSpammyCrowdDeterministic(t *testing.T) {
	for _, k := range []int{1, 3, 5} {
		a := simulateCrowd(t, defaultSpammyCrowd, k, 7)
		b := simulateCrowd(t, defaultSpammyCrowd, k, 7)
		if a != b {
			t.Fatalf("k=%d: same seed, different outcomes: %+v vs %+v", k, a, b)
		}
	}
}
