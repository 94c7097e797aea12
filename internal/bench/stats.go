package bench

// The small statistical toolkit the experiments score with: rank
// correlation (Kendall τ) for CROWDORDER quality, precision/recall for
// CROWDEQUAL, and share-of-work summaries for the worker-affinity
// analysis.

import (
	"fmt"
	"sort"
)

// kendallTau computes the Kendall rank correlation τ between two rankings
// given as slices of the same items (by label). 1 = identical order,
// -1 = reversed. Items missing from either ranking are ignored.
func kendallTau(a, b []string) (float64, error) {
	posB := make(map[string]int, len(b))
	for i, s := range b {
		posB[s] = i
	}
	var ranks []int
	for _, s := range a {
		if p, ok := posB[s]; ok {
			ranks = append(ranks, p)
		}
	}
	n := len(ranks)
	if n < 2 {
		return 0, fmt.Errorf("stats: need at least 2 common items, have %d", n)
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ranks[i] < ranks[j] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// topKShare returns the fraction of total work done by the k largest
// contributors (counts need not be sorted).
func topKShare(counts []int, k int) float64 {
	if len(counts) == 0 || k <= 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total, top := 0, 0
	for i, c := range sorted {
		total += c
		if i < k {
			top += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// gini computes the Gini coefficient of the given non-negative counts
// (0 = perfectly even, →1 = concentrated). Used for worker-affinity skew.
func gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	var cum, total float64
	for i, c := range sorted {
		cum += float64(c) * float64(2*(i+1)-n-1)
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// precisionRecall scores a predicted set against a truth set.
func precisionRecall(predicted, truth map[string]bool) (precision, recall, f1 float64) {
	tp := 0
	for p := range predicted {
		if truth[p] {
			tp++
		}
	}
	if len(predicted) > 0 {
		precision = float64(tp) / float64(len(predicted))
	}
	if len(truth) > 0 {
		recall = float64(tp) / float64(len(truth))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}
