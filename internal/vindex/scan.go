package vindex

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// ErrDimension reports a vector whose length differs from the index
// dimension: a query of the wrong length, or an added vector that did
// not match the ones before it.
var ErrDimension = errors.New("vindex: dimension mismatch")

// dimError reports a vector (what) of n elements offered to an index of
// dimension dim.
func dimError(what string, n, dim int) error {
	return fmt.Errorf("%w: %s has %d elements, index has %d", ErrDimension, what, n, dim)
}

// lanes is how many vectors one block interleaves.
const lanes = 8

// blocks stores vectors lane-interleaved, lanes to a block: element j
// of the vector in lane l of block b sits at data[b*lanes*dim+j*lanes+l],
// and the lanes past the last vector are zero. A scan then reads the
// store front to back, scoring a whole block per pass over the query.
//
// Every lane accumulates its inner product in element order with one
// rounded multiply and one rounded add per element, exactly as
// vector.Dot does, so every score has Dot's bits; see scanGo.
type blocks struct {
	dim  int
	ids  []int
	data []float32
}

// roundUp rounds n up to a whole number of blocks' worth of rows.
func roundUp(n int) int { return (n + lanes - 1) / lanes * lanes }

// add appends v under id. The first vector fixes the dimension; a
// vector of another length is refused with ErrDimension.
func (b *blocks) add(id int, v []float32) error {
	if len(b.ids) == 0 {
		b.dim = len(v)
	} else if len(v) != b.dim {
		return dimError(fmt.Sprintf("vector %d", id), len(v), b.dim)
	}
	b.put(id, v)
	return nil
}

// put appends v, whose length is the store's dimension, under id.
func (b *blocks) put(id int, v []float32) {
	row := len(b.ids)
	b.ids = append(b.ids, id)
	if row%lanes == 0 {
		// Open a zeroed block. The data capacity follows the id
		// capacity, so a store whose ids were sized up front (Flat.Grow,
		// IVF.Build) allocates its data once.
		need := len(b.data) + lanes*b.dim
		if need > cap(b.data) {
			grown := make([]float32, len(b.data), roundUp(cap(b.ids))*b.dim)
			copy(grown, b.data)
			b.data = grown
		}
		b.data = b.data[:need]
		clear(b.data[need-lanes*b.dim:])
	}
	base := row/lanes*lanes*b.dim + row%lanes
	for j, x := range v {
		b.data[base+j*lanes] = x
	}
}

// checkQuery refuses a query whose length is not the stored dimension.
// An empty store has no dimension and accepts any query.
func (b *blocks) checkQuery(q []float32) error {
	if len(b.ids) > 0 && len(q) != b.dim {
		return dimError("query", len(q), b.dim)
	}
	return nil
}

// scan scores every stored vector against q, in storage order, and
// offers the scores to sel. The query length must be the stored
// dimension (checkQuery). Scores of one ctxCheckStride-row chunk go
// through a stack buffer, and ctx is checked once per chunk.
func (b *blocks) scan(ctx context.Context, q []float32, sel *selector) error {
	var buf [ctxCheckStride]float32
	n := len(b.ids)
	for start := 0; start < n; start += ctxCheckStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := min(ctxCheckStride, n-start)
		padded := roundUp(rows)
		scanBlocks(q, b.data[start*b.dim:(start+padded)*b.dim], buf[:padded])
		sel.take(b.ids[start:start+rows], buf[:rows])
	}
	return nil
}

// scanBlocks sets out[r] to the inner product of q with stored row r of
// data, for the len(out)/lanes blocks data holds (see blocks). It
// checks the lengths the kernels rely on, so a kernel never reads or
// writes past a slice: inconsistent lengths score fewer rows instead.
func scanBlocks(q, data, out []float32) {
	dim := len(q)
	if dim == 0 {
		clear(out)
		return
	}
	nb := min(len(out)/lanes, len(data)/(lanes*dim))
	if nb > 0 {
		scanKernel(q, data[:nb*lanes*dim], out[:nb*lanes])
	}
}

// scanGo is the portable kernel: out[r] = vector.Dot(q, row r) for the
// len(out)/lanes blocks in data, which must hold exactly that many
// blocks of dimension len(q). The product is converted to float32
// before the add so no architecture fuses the two into one FMA
// (vector.Dot writes it the same way).
func scanGo(q, data, out []float32) {
	dim := len(q)
	for r := 0; r+lanes <= len(out); r += lanes {
		blk := data[r*dim : (r+lanes)*dim]
		var acc [lanes]float32
		for j, x := range q {
			row := blk[j*lanes : j*lanes+lanes]
			for l := range acc {
				acc[l] += float32(x * row[l])
			}
		}
		copy(out[r:r+lanes], acc[:])
	}
}

// selector keeps the k best hits offered to it in `better` order. With
// k <= 0 or k >= n it keeps every hit and sorts once at the end;
// otherwise a bounded min-heap (worst hit at the root) gives O(n log k)
// time with a k-sized footprint. A hit scoring below the root cannot
// enter the heap, so that test runs first and skips the heap for
// almost every row of a large pool.
type selector struct {
	bounded bool
	hits    []Hit
}

// newSelector returns a selector for the k best of n hits. Its hit
// slice is the only allocation of a search.
func newSelector(k, n int) selector {
	if k <= 0 || k >= n {
		return selector{hits: make([]Hit, 0, n)}
	}
	return selector{bounded: true, hits: make([]Hit, 0, k)}
}

// take offers ids[i] with scores[i], in order.
func (s *selector) take(ids []int, scores []float32) {
	ids = ids[:len(scores)]
	hits := s.hits
	i := 0
	for ; i < len(scores) && (!s.bounded || len(hits) < cap(hits)); i++ {
		hits = append(hits, Hit{ID: ids[i], Score: scores[i]})
		if s.bounded {
			siftUp(hits, len(hits)-1)
		}
	}
	if i < len(scores) {
		// The heap is full: a hit enters only by beating its root, and
		// one scoring below the root's score cannot.
		worst := hits[0].Score
		for ; i < len(scores); i++ {
			if scores[i] < worst {
				continue
			}
			if h := (Hit{ID: ids[i], Score: scores[i]}); better(h, hits[0]) {
				hits[0] = h
				siftDown(hits, 0)
				worst = hits[0].Score
			}
		}
	}
	s.hits = hits
}

// result returns the kept hits in `better` order.
func (s *selector) result() []Hit {
	slices.SortFunc(s.hits, compareHits)
	return s.hits
}

// compareHits orders hits by `better`.
func compareHits(a, b Hit) int {
	switch {
	case better(a, b):
		return -1
	case better(b, a):
		return 1
	}
	return 0
}

// better is the ranking order of hits: score descending, ID ascending
// on ties. It is a strict total order, which is what makes the bounded
// heap selection return exactly the prefix a full sort would.
func better(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// siftUp restores the min-heap property (worst hit at the root, under
// `better`) after appending at position i.
func siftUp(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the min-heap property after replacing the root.
func siftDown(h []Hit, i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && better(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && better(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
