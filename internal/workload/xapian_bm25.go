package workload

import (
	"container/heap"
	"fmt"
	"math"
)

// BM25 ranking for the Xapian workload: the scoring function real Xapian
// defaults to (its BM25Weight scheme), alongside the simpler tf-idf scorer
// in xapian.go. Both operate on the same inverted index.

// BM25Params are the standard free parameters.
type BM25Params struct {
	K1 float64 // term-frequency saturation; Xapian's default is 1.0–2.0
	B  float64 // length normalization in [0,1]
}

// DefaultBM25 returns the conventional parameterization.
func DefaultBM25() BM25Params { return BM25Params{K1: 1.2, B: 0.75} }

// Validate reports an error for malformed parameters.
func (p BM25Params) Validate() error {
	if p.K1 < 0 {
		return fmt.Errorf("workload: BM25 k1 %g < 0", p.K1)
	}
	if !(p.K1 <= math.MaxFloat64) {
		return fmt.Errorf("workload: BM25 k1 %g not finite", p.K1)
	}
	if !(p.B >= 0 && p.B <= 1) {
		return fmt.Errorf("workload: BM25 b %g outside [0,1]", p.B)
	}
	return nil
}

// SearchBM25 runs a top-k BM25 query over an index built by buildIndex.
// docLens holds per-document lengths; terms may repeat (repeats weigh the
// term higher, as in a real query parser).
func (t *xapianTask) SearchBM25(index [][]posting, docLens []int32,
	terms []int32, params BM25Params) ([]int32, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := float64(t.docs)
	var avgLen float64
	for _, l := range docLens {
		avgLen += float64(l)
	}
	avgLen /= float64(len(docLens))

	// Query-term weights: repeated query terms accumulate.
	qtf := make(map[int32]float64, len(terms))
	for _, term := range terms {
		if term < 0 || int(term) >= len(index) {
			return nil, fmt.Errorf("workload: query term %d out of vocabulary", term)
		}
		qtf[term]++
	}

	scores := make(map[int32]float64)
	for term, qw := range qtf {
		df := float64(len(index[term]))
		if df == 0 {
			continue
		}
		// The BM25 idf with the +0.5 smoothing; clamped at a small positive
		// floor so ubiquitous terms cannot flip the ranking.
		idf := math.Log((n - df + 0.5) / (df + 0.5))
		if idf < 1e-6 {
			idf = 1e-6
		}
		for _, p := range index[term] {
			tf := float64(p.tf)
			dl := float64(docLens[p.doc])
			denom := tf + params.K1*(1-params.B+params.B*dl/avgLen)
			scores[p.doc] += qw * idf * tf * (params.K1 + 1) / denom
		}
	}

	h := make(scoreHeap, 0, t.topK)
	heap.Init(&h)
	for doc, s := range scores {
		switch {
		case len(h) < t.topK:
			heap.Push(&h, scoredDoc{doc: doc, score: s})
		case s > h[0].score || (s == h[0].score && doc < h[0].doc):
			h[0] = scoredDoc{doc: doc, score: s}
			heap.Fix(&h, 0)
		}
	}
	out := make([]int32, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(scoredDoc).doc
	}
	return out, nil
}
