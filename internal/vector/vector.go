// Package vector provides dense float32 vector operations and a small
// k-means implementation, used by the retrieval encoder and the IVF
// vector index.
package vector

import (
	"math"
	"math/rand"
)

// Vec is a dense vector.
type Vec []float32

// New returns a zero vector of the given dimension.
func New(dim int) Vec { return make(Vec, dim) }

// Dot returns the inner product of two equal-length vectors. Each
// product is rounded to float32 before it is added (the explicit
// conversion keeps any architecture from fusing the two into one FMA),
// so the sum is the same on every architecture, and the vector index's
// blocked scan reproduces it bit for bit.
func Dot(a, b Vec) float32 {
	var s float32
	for i := range a {
		s += float32(a[i] * b[i])
	}
	return s
}

// Norm returns the Euclidean norm.
func Norm(a Vec) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a to unit norm in place and returns it. The zero
// vector stays zero.
func Normalize(a Vec) Vec {
	n := Norm(a)
	if n == 0 {
		return a
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return a
}

// Cosine returns the cosine similarity; zero when either vector is zero.
func Cosine(a, b Vec) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Axpy computes a += alpha*x in place.
func Axpy(a Vec, alpha float32, x Vec) {
	for i := range a {
		a[i] += alpha * x[i]
	}
}

// Scale multiplies a by alpha in place.
func Scale(a Vec, alpha float32) {
	for i := range a {
		a[i] *= alpha
	}
}

// Clone returns a copy of a.
func Clone(a Vec) Vec {
	out := make(Vec, len(a))
	copy(out, a)
	return out
}

// KMeans clusters the vectors into k centroids with Lloyd's algorithm.
// It returns the centroids and the assignment of each vector. When there
// are fewer vectors than k, the number of centroids is reduced.
func KMeans(vecs []Vec, k, iters int, seed int64) ([]Vec, []int) {
	if len(vecs) == 0 || k <= 0 {
		return nil, nil
	}
	if k > len(vecs) {
		k = len(vecs)
	}
	dim := len(vecs[0])
	rng := rand.New(rand.NewSource(seed))

	// Initialize with distinct random points.
	perm := rng.Perm(len(vecs))
	centroids := make([]Vec, k)
	for i := 0; i < k; i++ {
		centroids[i] = Clone(vecs[perm[i]])
	}
	assign := make([]int, len(vecs))
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, float32(math.MaxFloat32)
			for c, cent := range centroids {
				d := sqDist(v, cent)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		sums := make([]Vec, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = New(dim)
		}
		for i, v := range vecs {
			Axpy(sums[assign[i]], 1, v)
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random point.
				centroids[c] = Clone(vecs[rng.Intn(len(vecs))])
				continue
			}
			Scale(sums[c], 1/float32(counts[c]))
			centroids[c] = sums[c]
		}
	}
	return centroids, assign
}

func sqDist(a, b Vec) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
