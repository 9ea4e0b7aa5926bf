package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile. A
// p99 therefore needs at least 1000 samples and a p90 at least 100; with
// fewer the tail figure is one or two outliers and moves run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted, failing
// when fewer than minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// latencies collects per-call durations in microseconds.
type latencies struct {
	us []float64
}

func newLatencies(capacity int) *latencies { return &latencies{us: make([]float64, 0, capacity)} }

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d)/1e3) }

// pcts returns the requested percentiles, sorting the samples once.
func (l *latencies) pcts(ps ...float64) ([]float64, error) {
	sort.Float64s(l.us)
	out := make([]float64, len(ps))
	for i, p := range ps {
		v, err := percentile(l.us, p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (l *latencies) mean() float64 {
	if len(l.us) == 0 {
		return 0
	}
	var s float64
	for _, v := range l.us {
		s += v
	}
	return s / float64(len(l.us))
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// windowRate splits a timed phase into at most rateWindows windows of
// equal call counts, each of at least minWindowCalls calls.
const (
	rateWindows    = 1000
	minWindowCalls = 20
)

// windowRate returns calls per second as the median over consecutive
// windows of equal call counts, given each call's completion time since
// the phase started. Other tenants of the machine stall the process for
// milliseconds at a time; a streaming run's windows last tens of
// milliseconds, so the median window is one without a stall, while a
// slower call slows every window. Over ten windows of seconds each the
// rate of an unchanged engine-backlog moved by a fifth between runs.
func windowRate(ends []time.Duration) float64 {
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	n := len(ends)
	k := max(1, min(rateWindows, n/minWindowCalls))
	rates := make([]float64, 0, k)
	for j := 0; j < k; j++ {
		lo, hi := j*n/k, (j+1)*n/k
		var from time.Duration
		if lo > 0 {
			from = ends[lo-1]
		}
		if span := ends[hi-1] - from; span > 0 {
			rates = append(rates, float64(hi-lo)/span.Seconds())
		}
	}
	rate := median(rates) // sorts rates
	fmt.Printf("calls/s over %d windows: min %.0f, median %.0f, max %.0f; whole run %.0f\n",
		len(rates), rates[0], rate, rates[len(rates)-1], float64(n)/ends[n-1].Seconds())
	return rate
}

// tailPct is the percentile every workload reports as its tail.
const tailPct = 90

// tailWindows is the most windows windowTail splits a timed phase into.
const tailWindows = 10

// windowTail returns the p-th percentile of call times as the median over
// consecutive windows of equal call counts of the percentile within each
// window. series holds each client's call times in the order it made
// them; each is split into tailWindows/len(series) windows, or fewer when
// a window would then hold fewer than minBeyond samples beyond the
// percentile. A burst of contention from other tenants of the machine
// raises the tail of the windows it falls in without moving the median.
func windowTail(tag string, series [][]float64, p float64) (float64, error) {
	need := int(math.Ceil(minBeyond * 100 / (100 - p)))
	var tails []float64
	for _, s := range series {
		n := len(s)
		k := max(1, min(tailWindows/max(len(series), 1), n/need))
		for j := 0; j < k; j++ {
			w := append([]float64(nil), s[j*n/k:(j+1)*n/k]...)
			sort.Float64s(w)
			v, err := percentile(w, p)
			if err != nil {
				return 0, err
			}
			tails = append(tails, v)
		}
	}
	if len(tails) == 0 {
		return 0, errors.New("tail of no samples")
	}
	fmt.Printf("%s p%g by window: %.1f\n", tag, p, tails)
	// The whole run's p99 is printed for reference: its spread across runs
	// is too wide to bound.
	var all []float64
	for _, s := range series {
		all = append(all, s...)
	}
	sort.Float64s(all)
	if p99, err := percentile(all, 99); err == nil {
		fmt.Printf("%s: %d calls, whole-run p99 %.1f us\n", tag, len(all), p99)
	}
	return median(tails), nil
}
