// Package explore turns the EMI design flow into a search workload: a
// multi-objective optimizer that runs placement tournaments and
// component-parameter sweeps against a configurable objective vector
// (EMI margin, board area, net length, DRC violations) with NSGA-II-style
// non-dominated sorting, and a Monte Carlo tolerance analyzer producing
// EMI yield curves — the fraction of builds passing the limit mask per
// frequency bin — with confidence intervals.
//
// The solver stack underneath (compiled MNA stamp plans, LU reuse, one
// compiled emi.Band per candidate and per yield run) is what makes
// treating a whole design space as one workload affordable; candidates
// fan out over the shared engine pool while every per-candidate
// evaluation stays serial and deterministic.
package explore

import (
	"math"
	"sort"
)

// Dominates reports Pareto dominance for minimization: a dominates b when
// a is no worse in every objective and strictly better in at least one.
// Vectors of unequal length never dominate each other.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// NondominatedSort partitions the points into fronts: front 0 holds the
// non-dominated points, front k the points dominated only by fronts < k
// (the fast non-dominated sort of NSGA-II). Every front lists indices
// into objs in ascending order, so the result is independent of any
// iteration accident.
func NondominatedSort(objs [][]float64) [][]int {
	n := len(objs)
	if n == 0 {
		return nil
	}
	domCount := make([]int, n)    // how many points dominate i
	dominated := make([][]int, n) // points i dominates
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case Dominates(objs[i], objs[j]):
				dominated[i] = append(dominated[i], j)
				domCount[j]++
			case Dominates(objs[j], objs[i]):
				dominated[j] = append(dominated[j], i)
				domCount[i]++
			}
		}
	}
	var fronts [][]int
	var cur []int
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			cur = append(cur, i)
		}
	}
	for len(cur) > 0 {
		sort.Ints(cur)
		fronts = append(fronts, cur)
		var next []int
		for _, i := range cur {
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		cur = next
	}
	return fronts
}

// CrowdingDistance returns the NSGA-II crowding distance of each member
// of one front (aligned with the front slice): the boundary points of
// every objective get +Inf, interior points the sum of normalized
// neighbour gaps. An objective with zero range contributes nothing.
// Ties in an objective are broken by point index so the assignment is
// deterministic.
func CrowdingDistance(objs [][]float64, front []int) []float64 {
	n := len(front)
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	m := len(objs[front[0]])
	idx := make([]int, n) // positions 0..n-1 into front, resorted per objective
	for k := 0; k < m; k++ {
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			va, vb := objs[front[idx[a]]][k], objs[front[idx[b]]][k]
			if va != vb {
				return va < vb
			}
			return front[idx[a]] < front[idx[b]]
		})
		lo := objs[front[idx[0]]][k]
		hi := objs[front[idx[n-1]]][k]
		dist[idx[0]] = math.Inf(1)
		dist[idx[n-1]] = math.Inf(1)
		if !(hi > lo) || math.IsInf(hi, 0) || math.IsInf(lo, 0) {
			continue
		}
		for i := 1; i < n-1; i++ {
			if math.IsInf(dist[idx[i]], 1) {
				continue
			}
			dist[idx[i]] += (objs[front[idx[i+1]]][k] - objs[front[idx[i-1]]][k]) / (hi - lo)
		}
	}
	return dist
}
