// Package vindex provides top-k vector similarity search over unit-norm
// embeddings: an exact flat index and an IVF-style clustered index (a
// k-means coarse quantizer over probed inverted lists). It plays the
// role Faiss plays in the paper's inference pipeline (§V-A2): retrieving
// the closest dialect-expression embeddings for an NL query embedding.
//
// Both indexes scan a blocked, lane-interleaved copy of their vectors
// with a SIMD kernel (SSE2 assembly on amd64, portable Go elsewhere)
// whose scores are bit-identical to vector.Dot; see blocks.
//
// Searches accept a context.Context; cancellation and deadlines are
// checked inside the scoring loops, so a slow scan over a very large
// pool can be abandoned mid-flight. Indexes are safe for concurrent
// searches once populated.
package vindex

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/parallel"
	"repro/internal/vector"
)

// ctxCheckStride is how many scored vectors pass between context
// checks in the hot loops; a power of two keeps the check a mask.
const ctxCheckStride = 256

// Hit is one search result.
type Hit struct {
	ID    int
	Score float32 // inner product; cosine for unit vectors
}

// Index is a top-k inner-product search structure.
type Index interface {
	// Add inserts a vector under the caller-chosen id. Add must not be
	// called concurrently with Search.
	Add(id int, v vector.Vec)
	// Search returns the k highest-scoring ids in descending score
	// order. Fewer than k hits are returned when the index is smaller.
	Search(q vector.Vec, k int) []Hit
	// SearchContext is Search with cancellation: the scan aborts (and
	// returns the context error) when ctx is done.
	SearchContext(ctx context.Context, q vector.Vec, k int) ([]Hit, error)
	// SearchBatch answers one top-k query per embedding in qs with a
	// single call: the per-query scans fan out across the available
	// CPUs, and out[i] is exactly what SearchContext(ctx, qs[i], k)
	// would return. Batching replaces the per-query loop the training
	// and bulk-evaluation paths would otherwise run sequentially.
	SearchBatch(ctx context.Context, qs []vector.Vec, k int) ([][]Hit, error)
	// Len returns the number of stored vectors.
	Len() int
}

// searchBatch fans a query batch across CPUs over any per-query search
// function, keeping out[i] aligned with qs[i].
func searchBatch(ctx context.Context, qs []vector.Vec, k int,
	search func(ctx context.Context, q vector.Vec, k int) ([]Hit, error)) ([][]Hit, error) {
	out := make([][]Hit, len(qs))
	err := parallel.ForEach(ctx, len(qs), 0, func(i int) error {
		hits, serr := search(ctx, qs[i], k)
		if serr != nil {
			return serr
		}
		out[i] = hits
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Flat is the exact brute-force index. It keeps its own blocked copy
// of the vectors (see blocks) and scans it with the block kernel.
type Flat struct {
	rows blocks
	// err is the first refused Add; every search returns it.
	err error
}

// NewFlat returns an empty exact index.
func NewFlat() *Flat { return &Flat{} }

// Grow reserves room for n more vectors, so a build that knows its
// size allocates the blocked store once and exactly.
func (f *Flat) Grow(n int) { f.rows.ids = slices.Grow(f.rows.ids, n) }

// Add implements Index. The first vector fixes the index dimension; a
// vector of another length is not stored, and every later search
// returns an ErrDimension error naming it.
func (f *Flat) Add(id int, v vector.Vec) {
	if err := f.rows.add(id, v); err != nil && f.err == nil {
		f.err = err
	}
}

// Len implements Index.
func (f *Flat) Len() int { return len(f.rows.ids) }

// Search implements Index.
//
//garlint:allow ctxpass errlost -- compatibility wrapper over SearchContext; the fresh root context and the dropped error are the legacy signature
func (f *Flat) Search(q vector.Vec, k int) []Hit {
	hits, _ := f.SearchContext(context.Background(), q, k)
	return hits
}

// SearchContext implements Index. A query whose length is not the
// index dimension returns an ErrDimension error.
func (f *Flat) SearchContext(ctx context.Context, q vector.Vec, k int) ([]Hit, error) {
	if f.err != nil {
		return nil, f.err
	}
	if err := f.rows.checkQuery(q); err != nil {
		return nil, err
	}
	sel := newSelector(k, len(f.rows.ids))
	if err := f.rows.scan(ctx, q, &sel); err != nil {
		return nil, err
	}
	return sel.result(), nil
}

// SearchBatch implements Index.
func (f *Flat) SearchBatch(ctx context.Context, qs []vector.Vec, k int) ([][]Hit, error) {
	return searchBatch(ctx, qs, k, f.SearchContext)
}

// IVF is the clustered index: vectors are assigned to the nearest of
// nlist k-means centroids; a query scans only the nprobe closest lists.
type IVF struct {
	nlist, nprobe int
	seed          int64
	ids           []int
	vecs          []vector.Vec
	// err is the first refused Add; every search returns it.
	err       error
	centroids []vector.Vec
	lists     []blocks // centroid → its vectors, blocked
	// buildMu serializes the lazy clustering so concurrent first
	// searches do not race; built is only written under buildMu.
	buildMu sync.Mutex
	built   bool
}

// NewIVF returns an IVF index with nlist clusters probing nprobe lists
// per query. The index trains lazily on first search.
func NewIVF(nlist, nprobe int, seed int64) *IVF {
	if nlist < 1 {
		nlist = 1
	}
	if nprobe < 1 {
		nprobe = 1
	}
	return &IVF{nlist: nlist, nprobe: nprobe, seed: seed}
}

// Add implements Index. Adding invalidates the trained clustering. As
// with Flat, a vector whose length differs from the first is not
// stored and makes every later search return an ErrDimension error.
func (iv *IVF) Add(id int, v vector.Vec) {
	iv.buildMu.Lock()
	defer iv.buildMu.Unlock()
	if len(iv.vecs) > 0 && len(v) != len(iv.vecs[0]) {
		if iv.err == nil {
			iv.err = dimError(fmt.Sprintf("vector %d", id), len(v), len(iv.vecs[0]))
		}
		return
	}
	iv.ids = append(iv.ids, id)
	iv.vecs = append(iv.vecs, v)
	iv.built = false
}

// Len implements Index.
func (iv *IVF) Len() int {
	iv.buildMu.Lock()
	defer iv.buildMu.Unlock()
	return len(iv.ids)
}

// Build trains the coarse quantizer and lays each inverted list out in
// blocked form; called automatically by Search. It is safe to call
// from concurrent searches.
func (iv *IVF) Build() {
	iv.buildMu.Lock()
	defer iv.buildMu.Unlock()
	if iv.built || len(iv.vecs) == 0 {
		return
	}
	centroids, assign := vector.KMeans(iv.vecs, iv.nlist, 10, iv.seed)
	sizes := make([]int, len(centroids))
	for _, c := range assign {
		sizes[c]++
	}
	iv.lists = make([]blocks, len(centroids))
	for c, n := range sizes {
		iv.lists[c] = blocks{dim: len(iv.vecs[0]), ids: make([]int, 0, n)}
	}
	for i, c := range assign {
		iv.lists[c].put(iv.ids[i], iv.vecs[i]) // Add checked the length
	}
	iv.centroids = centroids
	iv.built = true
}

// Search implements Index.
//
//garlint:allow ctxpass errlost -- compatibility wrapper over SearchContext; the fresh root context and the dropped error are the legacy signature
func (iv *IVF) Search(q vector.Vec, k int) []Hit {
	hits, _ := iv.SearchContext(context.Background(), q, k)
	return hits
}

// SearchContext implements Index. The centroid ranking and the probed
// scans both observe cancellation; the probed lists are scanned in
// probe order into one selection. A query whose length is not the
// index dimension returns an ErrDimension error.
func (iv *IVF) SearchContext(ctx context.Context, q vector.Vec, k int) ([]Hit, error) {
	iv.Build()
	if iv.err != nil {
		return nil, iv.err
	}
	if len(iv.centroids) == 0 {
		return nil, ctx.Err()
	}
	if len(q) != len(iv.centroids[0]) {
		return nil, dimError("query", len(q), len(iv.centroids[0]))
	}
	// Rank centroids by similarity and scan the top nprobe lists.
	type cs struct {
		c     int
		score float32
	}
	order := make([]cs, len(iv.centroids))
	for i, cent := range iv.centroids {
		if i&(ctxCheckStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		order[i] = cs{c: i, score: vector.Dot(q, cent)}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].score > order[j].score })
	probed := order[:min(iv.nprobe, len(order))]
	n := 0
	for _, o := range probed {
		n += len(iv.lists[o.c].ids)
	}
	sel := newSelector(k, n)
	for _, o := range probed {
		if err := iv.lists[o.c].scan(ctx, q, &sel); err != nil {
			return nil, err
		}
	}
	return sel.result(), nil
}

// SearchBatch implements Index. The coarse quantizer is built once up
// front so concurrent per-query scans never contend on the lazy build.
func (iv *IVF) SearchBatch(ctx context.Context, qs []vector.Vec, k int) ([][]Hit, error) {
	iv.Build()
	return searchBatch(ctx, qs, k, iv.SearchContext)
}
