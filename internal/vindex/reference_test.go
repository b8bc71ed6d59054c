package vindex

import (
	"context"
	"sort"

	"repro/internal/vector"
)

// topK is the scan the blocked kernel replaced, kept as the oracle the
// tests compare against: one vector.Dot per stored vector in storage
// order, then the same bounded min-heap (or, for k <= 0 or k >= n, a
// full sort) under `better`.
func topK(ctx context.Context, q vector.Vec, ids []int, vecs []vector.Vec, k int) ([]Hit, error) {
	if k <= 0 || k >= len(ids) {
		hits := make([]Hit, 0, len(ids))
		for i, v := range vecs {
			if i&(ctxCheckStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			hits = append(hits, Hit{ID: ids[i], Score: vector.Dot(q, v)})
		}
		sort.Slice(hits, func(i, j int) bool { return better(hits[i], hits[j]) })
		return hits, nil
	}

	// heap[0] is the worst of the k best seen so far (min-heap under
	// `better`).
	heap := make([]Hit, 0, k)
	for i, v := range vecs {
		if i&(ctxCheckStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		h := Hit{ID: ids[i], Score: vector.Dot(q, v)}
		if len(heap) < k {
			heap = append(heap, h)
			siftUp(heap, len(heap)-1)
			continue
		}
		if better(h, heap[0]) {
			heap[0] = h
			siftDown(heap, 0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return better(heap[i], heap[j]) })
	return heap, nil
}
